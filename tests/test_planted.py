"""Planted drift, end to end: a flip in the data must show in the reports.

Two corpora of 8 single-release projects, one release per 6-month
bucket, 20 classes each (8 defective). Attribute f1 is drawn from
[6, 10] for defective classes and from [0, 4] for clean ones; f2 is
uniform noise. In the planted corpus f1's relation flips from bucket
FLIP on (defective classes draw from [0, 4], clean ones from [6, 10]);
the control corpus never flips. Both run the time-aware CC and II
configurations with the default gap of one bucket.

identity is checked exactly. A tree trained before the flip splits f1
between 4 and 6 into pure leaves, so it ranks every test version of
the same regime perfectly (AUC 1) and every flipped one exactly
backwards (AUC 0). Pairs with split_index <= FLIP train before the flip.

watanabe08 and camargocruz09 are checked only for direction. Both move
test values relative to the training values: watanabe08 scales the
test side by the ratio of the training mean to the test mean, pooled
over every test release of the pair, so a test side that mixes the two
regimes moves pre-flip values too; camargocruz09's median shift moves
training values against test values. Over twelve seeds of this
generator, camargocruz09 gave AUC 0.58-1.0 and watanabe08 0.75-1.0 on
test versions of the training regime, so neither keeps the effect
exactly.
"""

import csv
import random
from datetime import date

import pytest

from e2e import write_experiment
from synth import csv_rows, dataset_csv, make_release
from timeaware_cpdp.config import ExperimentConfig
from timeaware_cpdp.runner import run_experiment
from timeaware_cpdp.stability import load_results_csv

FLIP = 4
TECHNIQUES = ("identity", "watanabe08", "camargocruz09")


def corpus(flip_at):
    """One release per bucket; f1 separates the classes, flipped from flip_at on."""
    rng = random.Random(1)
    releases = []
    for bucket in range(8):
        rows = []
        for i in range(20):
            defective = i < 8
            high = defective != (bucket >= flip_at)
            f1 = rng.uniform(6, 10) if high else rng.uniform(0, 4)
            rows.append(((f1, rng.uniform(0, 10)), defective))
        released = date(2001 + bucket // 2, 1 + 6 * (bucket % 2), 15)
        releases.append(make_release(f"p{bucket}", "1", released, rows))
    return releases


def run(tmp_path, flip_at):
    """results.csv records and overall AUC rows of stability.csv by (technique, kind)."""
    releases = corpus(flip_at)
    (tmp_path / "releases.csv").write_text(
        dataset_csv(csv_rows(releases)), encoding="utf-8")
    cfg = ExperimentConfig.from_file(write_experiment(
        tmp_path, seed=1, **{"pairs.configurations": "CC,II",
                             "pairs.gap_buckets": None,
                             "run.techniques": ",".join(TECHNIQUES)}))
    summary = run_experiment(cfg, out_dir=tmp_path / "out")
    assert summary.pair_technique_failures == 0
    with open(tmp_path / "out" / "stability.csv", encoding="utf-8") as fh:
        overall = {(row["technique"], row["kind"]): row
                   for row in csv.DictReader(fh)
                   if row["metric"] == "auc" and row["window_k"] == ""}
    assert sorted(overall) == sorted((t, k) for t in TECHNIQUES
                                     for k in ("CC", "II"))
    return load_results_csv(tmp_path / "out" / "results.csv"), overall


def bucket(record):
    return int(record.test_project[1:])


def before_the_flip(records, technique):
    """AUCs of pairs trained before the flip: (same-regime, flipped) test versions."""
    trained_before = [r for r in records
                      if r.technique == technique and r.split_index <= FLIP]
    return ([r.auc for r in trained_before if bucket(r) < FLIP],
            [r.auc for r in trained_before if bucket(r) >= FLIP])


def test_control_corpus_is_stable(tmp_path):
    records, overall = run(tmp_path, flip_at=99)
    for kind in ("CC", "II"):
        row = overall["identity", kind]
        assert (row["mean"], row["sd"], row["stable"]) == ("1.0", "0.0", "true")
        assert overall["watanabe08", kind]["stable"] == "true"
    assert {r.auc for r in records if r.technique == "identity"} == {1.0}


def test_planted_flip_is_reported(tmp_path):
    records, overall = run(tmp_path, flip_at=FLIP)
    for technique in TECHNIQUES:
        for kind in ("CC", "II"):
            row = overall[technique, kind]
            assert float(row["sd"]) >= 0.05, (technique, kind)
            assert row["stable"] == "false", (technique, kind)
    assert float(overall["identity", "CC"]["sd"]) == pytest.approx(0.40, abs=0.005)
    assert float(overall["identity", "II"]["sd"]) == pytest.approx(0.36, abs=0.005)

    same, flipped = before_the_flip(records, "identity")
    assert (len(same), len(flipped)) == (26, 102)
    assert set(same) == {1.0}
    assert set(flipped) == {0.0}

    same, flipped = before_the_flip(records, "watanabe08")
    assert min(same) > 0.5 > max(flipped)

    same, flipped = before_the_flip(records, "camargocruz09")
    assert sum(same) / len(same) > 0.5 > sum(flipped) / len(flipped)
