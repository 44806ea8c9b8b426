"""Acceptance gate: eight criteria, one test (and one pass/fail line) each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
verdict lines. Criterion 7 needs the real released-defect dataset and is
skipped (waived) unless TIMEAWARE_CPDP_DATASET points at the converted
CSV.
"""

import csv
import itertools
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from e2e import write_experiment
from synth import oracle_bucket_index, oracle_pairs, pair_as_tuple, \
    random_dataset, toy_three_buckets
from timeaware_cpdp.config import ExperimentConfig
from timeaware_cpdp.dataset import bucketize
from timeaware_cpdp.metrics import scores
from timeaware_cpdp.pairs import ConfigurationKind, enumerate_pairs
from timeaware_cpdp.runner import run_experiment
from timeaware_cpdp.stability import (cliffs_delta, load_results_csv,
                                      magnitude_label, rankscores,
                                      wilcoxon_rank_sum)
from timeaware_cpdp.treatments import camargocruz09, ma12, watanabe08
from test_metrics import auc
from test_treatments import build_pair


I, J, K = ("i", "2008"), ("j", "2009"), ("k", "2010")


def test_criterion_1_toy_timeline_pair_tables():
    """Three-bucket toy, gap 0: exact pair sets including truncated rows."""
    started = time.monotonic()
    ts = bucketize(toy_three_buckets(), granularity_months=12)
    assert ts.bucket_count == 3

    def rows(kind):
        return [pair_as_tuple(p)
                for p in enumerate_pairs(ts, kind, gap_buckets=0)]

    assert rows(ConfigurationKind.CC) == [
        (1, 1, [I], [J]), (1, 2, [J], [K]),
        (2, 1, [I], [J, K]), (2, 2, [I, J], [K]),
        (3, 1, [I], [J, K]), (3, 2, [I, J], [K]),
    ]
    assert rows(ConfigurationKind.IC) == [
        (1, 1, [I], [J]), (1, 2, [I, J], [K]),
        (2, 1, [I], [J, K]), (2, 2, [I, J], [K]),
    ]
    assert rows(ConfigurationKind.CI) == [
        (1, 1, [I], [J, K]), (1, 2, [J], [K]),
        (2, 1, [I], [J, K]), (2, 2, [I, J], [K]),
    ]
    assert rows(ConfigurationKind.II) == [
        (None, 1, [I], [J, K]), (None, 2, [I, J], [K]),
    ]
    assert time.monotonic() - started < 1.0


def test_criterion_2_no_time_travel_over_1000_random_datasets():
    """Invariants plus exact brute-force agreement on 1,000 datasets."""
    started = time.monotonic()
    rng = random.Random(20260814)
    kinds = (ConfigurationKind.CC, ConfigurationKind.IC,
             ConfigurationKind.CI, ConfigurationKind.II)
    for _ in range(1000):
        releases, granularity = random_dataset(rng)
        ts = bucketize(releases, granularity_months=granularity)
        gap = rng.choice([0, 1, 2])
        for kind in kinds:
            pairs = enumerate_pairs(ts, kind, gap_buckets=gap)
            for pair in pairs:
                train_hi = max(oracle_bucket_index(ts, r) for r in pair.train)
                test_lo = min(oracle_bucket_index(ts, r) for r in pair.test)
                assert train_hi < pair.spec.split_index
                assert test_lo >= pair.spec.split_index + gap
                train_projects = {r.project_id for r in pair.train}
                assert not train_projects & {r.project_id for r in pair.test}
                assert pair.train and pair.test
            assert [pair_as_tuple(p) for p in pairs] == oracle_pairs(
                ts, kind, gap)
    assert time.monotonic() - started < 60.0


def test_criterion_3_metric_and_auc_oracles():
    """scores() against direct formulas; auc() against pairwise counting."""
    started = time.monotonic()
    rng = random.Random(3)
    for _ in range(10000):
        tp, fp, tn, fn = (rng.randint(0, 40) for _ in range(4))
        s = scores(tp, fp, tn, fn)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        fscore = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
        pf = fp / (tn + fp) if tn + fp else 0.0
        gmeasure = (2 * recall * (1 - pf) / (recall + 1 - pf)
                    if recall + 1 - pf else 0.0)
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
        for got, want in zip(s, (precision, recall, fscore, gmeasure, mcc)):
            assert abs(got - want) <= 1e-12

    tied_vectors = 0
    for case in range(1000):
        n = rng.randint(2, 50)
        if case % 2 == 0:
            values = [rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
                      for _ in range(n)]
        else:
            values = [rng.random() for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        labels[0], labels[1] = True, False
        if len(set(values)) < len(values):
            tied_vectors += 1
        pos = [v for v, l in zip(values, labels) if l]
        neg = [v for v, l in zip(values, labels) if not l]
        brute = sum(1.0 if p > q else 0.5 if p == q else 0.0
                    for p in pos for q in neg) / (len(pos) * len(neg))
        assert abs(auc(values, labels) - brute) <= 1e-9
    assert tied_vectors >= 300
    assert time.monotonic() - started < 30.0


def test_criterion_4_treatment_formula_fixtures():
    """Hand-derived treatment values exact to 1e-12; Ma12 monotonicity."""
    # scaling: train attribute mean 4.0, test mean 2.0, value 2.0 -> 4.0
    tp = build_pair([[3.0], [5.0]], [True, False], [[2.0], [2.0]],
                    [True, False])
    out = watanabe08(tp)
    assert abs(out.test_features[0, 0] - 4.0) <= 1e-12
    assert abs(out.test_features[1, 0] - 4.0) <= 1e-12

    # identical per-attribute medians: treated train value is log1p(v)
    x = [[1.0], [4.0], [9.0]]
    out = camargocruz09(build_pair(x, [True, False, True], x,
                                   [False, True, False]))
    for row, (v,) in zip(out.train_features, x):
        assert abs(row[0] - math.log1p(v)) <= 1e-12

    # median shift: train log terms {1,2,3}, test {0.5,1,1.5}:
    # train value e-1 maps to 1 + 2 - 1 = 2
    e = math.e
    out = camargocruz09(build_pair(
        [[e - 1.0], [e ** 2 - 1.0], [e ** 3 - 1.0]], [True, False, True],
        [[e ** 0.5 - 1.0], [e - 1.0], [e ** 1.5 - 1.0]], [True, False, True]))
    assert abs(out.train_features[0, 0] - 2.0) <= 1e-12

    # similarity weights: all attributes in range -> p; 10 of 20 -> 10/121
    p = 20
    test = [[0.0] * p, [1.0] * p]
    out = ma12(build_pair([[0.5] * 10 + [5.0] * 10, [0.5] * p],
                          [True, False], test, [True, False]))
    assert abs(out.train_weights[0] - 10.0 / 121.0) <= 1e-12
    assert abs(out.train_weights[1] - float(p)) <= 1e-12

    for p in (1, 5, 20):
        test = [[0.0] * p, [1.0] * p]
        rows = [[0.5] * s + [9.0] * (p - s) for s in range(p + 1)]
        weights = ma12(build_pair(rows, [True] * (p + 1), test,
                                  [True, False])).train_weights
        assert all(weights[s] < weights[s + 1] for s in range(p))


def test_criterion_5_statistics_oracles():
    """Exact rank-sum vs full enumeration; Cliff's delta; Romano cutoffs."""
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(5)
    for n_a in range(1, 8):
        for n_b in range(1, 8):
            for _ in range(3):
                a = [float(rng.randint(0, 5)) for _ in range(n_a)]
                b = [float(rng.randint(0, 5)) for _ in range(n_b)]
                if max(a + b) == min(a + b):
                    assert wilcoxon_rank_sum(a, b) == 1.0
                    continue
                ranks = scipy_stats.rankdata(a + b, method="average")
                w_obs = float(ranks[:n_a].sum())
                sums = [sum(ranks[i] for i in combo)
                        for combo in itertools.combinations(range(n_a + n_b),
                                                            n_a)]
                le = sum(1 for s in sums if s <= w_obs + 1e-9)
                ge = sum(1 for s in sums if s >= w_obs - 1e-9)
                expected = min(1.0, 2.0 * min(le, ge) / len(sums))
                assert abs(wilcoxon_rank_sum(a, b) - expected) <= 1e-12

    for _ in range(100):
        a = [rng.choice([0.0, 0.2, 0.5, 0.8]) for _ in range(rng.randint(1, 10))]
        b = [rng.choice([0.0, 0.3, 0.5, 1.0]) for _ in range(rng.randint(1, 10))]
        brute = sum((x > y) - (x < y) for x in a for y in b) / (len(a) * len(b))
        delta, _ = cliffs_delta(a, b)
        assert abs(delta - brute) <= 1e-12

    for level, below, above in ((0.147, "negligible", "small"),
                                (0.33, "small", "medium"),
                                (0.474, "medium", "large")):
        assert magnitude_label(level) == below
        assert magnitude_label(np.nextafter(level, 1.0)) == above
        assert magnitude_label(-level) == below
        assert magnitude_label(-np.nextafter(level, 1.0)) == above


def test_criterion_6_rankscore_properties():
    """Fixed rank-score ladder and argsort invariance."""
    rs = rankscores({"a": 0.9, "b": 0.7, "c": 0.5, "d": 0.3, "e": 0.1})
    assert sorted(rs.values(), reverse=True) == [1.0, 0.75, 0.5, 0.25, 0.0]
    assert sum(rs.values()) / len(rs) == pytest.approx(0.5, abs=1e-15)

    transforms = (lambda v: 2.0 * v + 1.0, lambda v: v ** 3,
                  math.atan, math.exp)
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 8)
        values = {f"t{i}": rng.choice([0.1, 0.25, 0.4, 0.6, 0.8])
                  for i in range(n)}
        base = rankscores(values)
        for transform in transforms:
            shifted = {t: transform(v) for t, v in values.items()}
            assert rankscores(shifted) == base


def test_criterion_7_desk_scale_reproduction(tmp_path):
    """Reproduction targets on the real dataset, if one is provided."""
    dataset = os.environ.get("TIMEAWARE_CPDP_DATASET")
    if not dataset:
        pytest.skip("criterion 7 waived: set TIMEAWARE_CPDP_DATASET to the "
                    "converted release CSV to enable it")
    dataset_path = Path(dataset).resolve()
    config_file = tmp_path / "repro.cfg"
    config_file.write_text(
        f"dataset.path = {dataset_path}\n"
        "run.seed = 1\n"
        "buckets.granularity_months = 6\n"
        "pairs.gap_buckets = 1\n"
        "pairs.configurations = CC,IC,CI,II\n"
        "run.techniques = watanabe08,camargocruz09,ma12,amasaki15,nam15\n",
        encoding="utf-8")
    config = ExperimentConfig.from_file(config_file)
    out = tmp_path / "out"
    run_experiment(config, out_dir=out)

    with open(out / "ranks.csv", encoding="utf-8") as fh:
        ranks = list(csv.DictReader(fh))
    for kind in ("CC", "IC", "CI", "II"):
        (row,) = [r for r in ranks
                  if r["kind"] == kind and r["technique"] == "nam15"]
        assert int(row["rank"]) == 1, f"nam15 not rank 1 in {kind}"

    with open(out / "stability.csv", encoding="utf-8") as fh:
        stability = [r for r in csv.DictReader(fh) if r["window_k"] == ""]
    expected_f = {"CC": 0.491, "IC": 0.496, "CI": 0.478, "II": 0.483}
    for kind, target in expected_f.items():
        (row,) = [r for r in stability
                  if r["kind"] == kind and r["technique"] == "nam15"
                  and r["metric"] == "fscore"]
        assert abs(float(row["mean"]) - target) <= 0.10

    for row in stability:
        if row["metric"] == "auc" and row["kind"] != "crossval" and row["sd"]:
            assert float(row["sd"]) < 0.05, \
                f"AUC unstable for {row['technique']}/{row['kind']}"

    unstable_f = [r for r in stability
                  if r["kind"] == "CC" and r["metric"] == "fscore"
                  and r["sd"] and float(r["sd"]) >= 0.05]
    assert len(unstable_f) >= 3


def test_criterion_8_determinism_and_seed_scope(tmp_path):
    """Same seed: byte-identical; new seed: only sampling-affected values."""
    balanced = {"run.balance": "true"}
    cfg = ExperimentConfig.from_file(
        write_experiment(tmp_path, seed=17, **balanced))
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    results_a = (tmp_path / "a" / "results.csv").read_bytes()
    assert results_a == (tmp_path / "b" / "results.csv").read_bytes()

    cfg99 = ExperimentConfig.from_file(
        write_experiment(tmp_path, seed=99, **balanced))
    run_experiment(cfg99, out_dir=tmp_path / "c")
    rows_a = load_results_csv(tmp_path / "a" / "results.csv")
    rows_c = load_results_csv(tmp_path / "c" / "results.csv")

    def keys(rows):
        return [(r.technique, r.kind, r.window_k, r.split_index, r.gap,
                 r.test_project, r.test_version) for r in rows]

    # undersampling changes which rows survive training, never which
    # (pair, technique, version) combinations get scored
    assert keys(rows_a) == keys(rows_c)
    assert rows_a != rows_c

    plain = ExperimentConfig.from_file(write_experiment(tmp_path, seed=17))
    run_experiment(plain, out_dir=tmp_path / "d")
    plain99 = ExperimentConfig.from_file(write_experiment(tmp_path, seed=99))
    run_experiment(plain99, out_dir=tmp_path / "e")
    assert (tmp_path / "d" / "results.csv").read_bytes() == \
        (tmp_path / "e" / "results.csv").read_bytes()
