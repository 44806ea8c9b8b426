"""Planted drift, end to end: a flip or a scale shift must show in the reports.

Every corpus has 8 single-release projects, one release per 6-month
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

The scale-shift corpus plants a change in conclusions instead: f1
separates the classes throughout, but both attributes are multiplied
by SCALE from bucket SHIFT on. It runs identity and watanabe08 on CC
and II with a four-fold cross-validation baseline, which on eight
single-release projects scores all eight releases, the six time-aware
test versions among them. A tree trained before the shift cuts f1
between 4 and 6, so scaled clean values above the cut land in the
defective leaf; watanabe08 divides the test side by about SCALE and
keeps the cut. So identity ranks 2 in the cells trained before the
shift and tested after it, and 1 (ahead of or tied with watanabe08) in
those tested before it: its rank_sd is above 0, and it ranks 2 overall
to watanabe08's 1. The baseline's folds train on both regimes and
score higher than the time-aware pairs trained before the shift, so
identity's AUC Cliff's delta (time-aware against the baseline) is
negative and large. Over generator seeds 1-20 identity's rank_sd was
0.47-0.51 on CC and 0.41-0.55 on II, its delta -0.58 to -0.81; the
tests run seeds 1-12. On the control corpus every tree separates every
test version perfectly, so identity scores 1.0 everywhere: it ranks 1
in every cell (rank_sd 0.0) and its delta is 0.0. watanabe08 is not
asserted on the control: its CC rank_sd was 0.144 on seed 4.
"""

import csv
import random
from datetime import date

import pytest

from e2e import write_experiment
from report_oracle import load_results_csv
from synth import csv_rows, dataset_csv, make_release
from timeaware_cpdp.config import ExperimentConfig
from timeaware_cpdp.runner import run_experiment, validate

FLIP = 4
SHIFT = 4
SCALE = 3.0
TECHNIQUES = ("identity", "watanabe08", "camargocruz09")


def corpus(flip_at=99, scale_at=99, seed=1):
    """One release per bucket; f1 separates the classes.

    f1's relation flips from bucket flip_at on, and both attributes are
    multiplied by SCALE from bucket scale_at on.
    """
    rng = random.Random(seed)
    releases = []
    for bucket in range(8):
        scale = SCALE if bucket >= scale_at else 1.0
        rows = []
        for i in range(20):
            defective = i < 8
            high = defective != (bucket >= flip_at)
            f1 = rng.uniform(6, 10) if high else rng.uniform(0, 4)
            rows.append(((scale * f1, scale * rng.uniform(0, 10)), defective))
        released = date(2001 + bucket // 2, 1 + 6 * (bucket % 2), 15)
        releases.append(make_release(f"p{bucket}", "1", released, rows))
    return releases


def run_corpus(tmp_path, releases, techniques, **overrides):
    """Run CC and II on releases; returns the config and the output directory."""
    (tmp_path / "releases.csv").write_text(
        dataset_csv(csv_rows(releases)), encoding="utf-8")
    cfg = ExperimentConfig.from_file(write_experiment(
        tmp_path, seed=1, **{"pairs.configurations": "CC,II",
                             "pairs.gap_buckets": None,
                             "run.techniques": ",".join(techniques)},
        **overrides))
    summary = run_experiment(cfg, out_dir=tmp_path / "out")
    assert summary.pair_technique_failures == 0
    return cfg, tmp_path / "out"


def read_report(path, *key):
    """A report's rows by the values of the key columns."""
    with open(path, encoding="utf-8") as fh:
        return {tuple(row[k] for k in key): row for row in csv.DictReader(fh)}


def run(tmp_path, flip_at):
    """results.csv records and overall AUC rows of stability.csv by (technique, kind)."""
    _, out = run_corpus(tmp_path, corpus(flip_at), TECHNIQUES)
    with open(out / "stability.csv", encoding="utf-8") as fh:
        overall = {(row["technique"], row["kind"]): row
                   for row in csv.DictReader(fh)
                   if row["metric"] == "auc" and row["window_k"] == ""}
    assert sorted(overall) == sorted((t, k) for t in TECHNIQUES
                                     for k in ("CC", "II"))
    return load_results_csv(out / "results.csv"), overall


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


def run_scaled(tmp_path, scale_at, seed):
    """ranks.csv rows by (kind, technique), comparisons.csv rows by (technique, metric)."""
    cfg, out = run_corpus(tmp_path, corpus(scale_at=scale_at, seed=seed),
                          ("identity", "watanabe08"),
                          **{"run.baseline_crossval": "4"})
    messages = [diag.message for diag in validate(cfg)]
    assert "crossval: scores 8 of 8 releases" in messages
    assert "crossval: scores 6 of the 6 time-aware test versions" in messages
    return (read_report(out / "ranks.csv", "kind", "technique"),
            read_report(out / "comparisons.csv", "technique", "metric"))


@pytest.mark.parametrize("seed", range(1, 13))
def test_planted_scale_shift_changes_the_ranking_and_the_comparison(tmp_path,
                                                                    seed):
    ranks, comparisons = run_scaled(tmp_path, SHIFT, seed)
    for kind in ("CC", "II"):
        assert ranks[kind, "watanabe08"]["rank"] == "1"
        assert ranks[kind, "identity"]["rank"] == "2"
        assert float(ranks[kind, "identity"]["rank_sd"]) > 0
    auc = comparisons["identity", "auc"]
    assert float(auc["cliffs_delta"]) < 0
    assert auc["magnitude"] == "large"


@pytest.mark.parametrize("seed", range(1, 13))
def test_scale_control_keeps_identity_first_everywhere(tmp_path, seed):
    ranks, comparisons = run_scaled(tmp_path, 99, seed)
    for kind in ("CC", "II"):
        assert ranks[kind, "identity"]["rank"] == "1"
        assert ranks[kind, "identity"]["rank_sd"] == "0.0"
    auc = comparisons["identity", "auc"]
    assert (auc["cliffs_delta"], auc["magnitude"]) == ("0.0", "negligible")
