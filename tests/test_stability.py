"""Stability aggregation, rank-sum test, effect sizes, ranking, balancing."""

import itertools
import math
import random

import numpy as np
import pytest

from timeaware_cpdp.errors import BalancingError, ConfigError
from timeaware_cpdp.stability import (MAGNITUDE_LEVELS, ResultRecord,
                                      _cell_means, _rank_sds, aggregate,
                                      cliffs_delta, magnitude_label,
                                      rank_techniques, rankscores,
                                      undersample, wilcoxon_rank_sum)
from timeaware_cpdp.treatments import TreatedPair


def make_record(technique, value, kind="CC", window=1, split=1,
                degenerate=False, project="p", version="v"):
    return ResultRecord(
        technique=technique, kind=kind, window_k=window, split_index=split,
        gap=1, test_project=project, test_version=version,
        tp=1, fp=1, tn=1, fn=1, precision=value, recall=value, fscore=value,
        gmeasure=value, mcc=value, auc=value, auc_degenerate=degenerate)


def rows_for(rows, technique, metric):
    return [r for r in rows if r.technique == technique and r.metric == metric]


def test_aggregate_mean_sd_and_stability():
    records = [make_record("a", 0.3, split=1), make_record("a", 0.5, split=2),
               make_record("b", 0.4, split=1), make_record("b", 0.4, split=2)]
    rows = aggregate(records)
    (fa,) = rows_for(rows, "a", "fscore")
    assert fa.n == 2
    assert fa.mean == pytest.approx(0.4, abs=1e-15)
    assert fa.sd == pytest.approx(math.sqrt(0.02), abs=1e-15)
    assert not fa.stable          # 0.1414 exceeds the 0.05 cutoff
    (fb,) = rows_for(rows, "b", "fscore")
    assert fb.sd == 0.0
    assert fb.stable


def test_aggregate_single_value_groups_report_sd_zero():
    rows = aggregate([make_record("a", 0.7)])
    (fa,) = rows_for(rows, "a", "fscore")
    assert fa.n == 1
    assert fa.sd == 0.0
    assert fa.stable


def test_aggregate_excludes_degenerate_auc_only():
    records = [make_record("a", 0.6, split=1, degenerate=True),
               make_record("a", 0.8, split=2)]
    rows = aggregate(records)
    (auc_row,) = rows_for(rows, "a", "auc")
    assert auc_row.n == 1
    assert auc_row.excluded == 1
    assert auc_row.mean == pytest.approx(0.8, abs=0)
    (f_row,) = rows_for(rows, "a", "fscore")
    assert f_row.n == 2
    assert f_row.excluded == 0


def test_aggregate_reports_empty_auc_groups():
    records = [make_record("a", 0.6, split=1, degenerate=True),
               make_record("a", 0.8, split=2, degenerate=True)]
    (auc_row,) = rows_for(aggregate(records), "a", "auc")
    assert auc_row.n == 0
    assert auc_row.excluded == 2
    assert auc_row.mean is None
    assert auc_row.stable is None


def test_aggregate_by_window_splits_groups():
    records = [make_record("a", 0.2, window=1), make_record("a", 0.9, window=2)]
    rows = aggregate(records, by_window=True)
    f_rows = rows_for(rows, "a", "fscore")
    assert [(r.window_k, r.mean) for r in f_rows] == [(1, 0.2), (2, 0.9)]


def test_aggregate_custom_threshold():
    records = [make_record("a", 0.3, split=1), make_record("a", 0.5, split=2)]
    (row,) = rows_for(aggregate(records, threshold=0.2), "a", "fscore")
    assert row.stable


def test_rank_sum_separated_samples():
    assert wilcoxon_rank_sum([1.0, 2.0, 3.0],
                             [101.0, 102.0, 103.0]) == pytest.approx(0.1,
                                                                     abs=1e-15)


def test_rank_sum_identical_samples():
    assert wilcoxon_rank_sum([2.0, 2.0], [2.0, 2.0]) == 1.0
    assert wilcoxon_rank_sum([1.0, 2.0], [1.0, 2.0]) == 1.0


def test_rank_sum_is_symmetric():
    rng = random.Random(11)
    for _ in range(30):
        a = [rng.choice([0.1, 0.3, 0.6]) for _ in range(rng.randint(2, 8))]
        b = [rng.choice([0.1, 0.4, 0.7]) for _ in range(rng.randint(2, 8))]
        assert wilcoxon_rank_sum(a, b) == pytest.approx(
            wilcoxon_rank_sum(b, a), abs=1e-12)


def test_rank_sum_exact_matches_enumeration_with_ties():
    # independent enumeration over every split of the pooled midranks
    from stats_oracle import midranks

    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = rng.randint(2, 6)
        a = [float(rng.randint(0, 4)) for _ in range(n)]
        b = [float(rng.randint(0, 4)) for _ in range(m)]
        if max(a + b) == min(a + b):
            continue
        ranks = list(midranks(a + b))
        w_obs = sum(ranks[:n])
        sums = [sum(ranks[i] for i in c)
                for c in itertools.combinations(range(n + m), n)]
        le = sum(1 for s in sums if s <= w_obs + 1e-9)
        ge = sum(1 for s in sums if s >= w_obs - 1e-9)
        expected = min(1.0, 2.0 * min(le, ge) / len(sums))
        assert wilcoxon_rank_sum(a, b) == pytest.approx(expected, abs=1e-12)


def test_rank_sum_exact_matches_scipy_without_ties():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 7)
        m = rng.randint(2, 7)
        pool = rng.sample(range(1000), n + m)
        a = [float(v) for v in pool[:n]]
        b = [float(v) for v in pool[n:]]
        ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="exact").pvalue
        assert wilcoxon_rank_sum(a, b) == pytest.approx(ref, abs=1e-12)


def test_rank_sum_large_samples_match_scipy_asymptotic():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(11, 25)
        m = rng.randint(11, 25)
        a = [rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]) for _ in range(n)]
        b = [rng.choice([0.1, 0.2, 0.4, 0.5, 0.9]) for _ in range(m)]
        ref = scipy_stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic",
            use_continuity=True).pvalue
        assert wilcoxon_rank_sum(a, b) == pytest.approx(ref, abs=1e-9)


def test_rank_sum_rejects_empty_samples():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([], [1.0])


def test_cliffs_delta_fixture():
    delta, label = cliffs_delta([1.0, 2.0], [1.0, 3.0])
    assert delta == pytest.approx(-0.25, abs=1e-15)
    assert label == "small"


def test_cliffs_delta_extremes():
    assert cliffs_delta([5.0, 6.0], [1.0, 2.0])[0] == 1.0
    assert cliffs_delta([1.0, 2.0], [5.0, 6.0])[0] == -1.0
    assert cliffs_delta([3.0], [3.0])[0] == 0.0


def test_cliffs_delta_antisymmetric_and_matches_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        a = [rng.choice([0.0, 0.25, 0.5, 1.0]) for _ in range(rng.randint(1, 9))]
        b = [rng.choice([0.0, 0.25, 0.75, 1.0]) for _ in range(rng.randint(1, 9))]
        brute = sum((x > y) - (x < y) for x in a for y in b) / (len(a) * len(b))
        delta, _ = cliffs_delta(a, b)
        assert delta == pytest.approx(brute, abs=1e-12)
        assert cliffs_delta(b, a)[0] == pytest.approx(-delta, abs=1e-12)


def test_magnitude_boundaries_are_inclusive():
    lo, mid, hi = MAGNITUDE_LEVELS
    assert magnitude_label(0.0) == "negligible"
    assert magnitude_label(lo) == "negligible"
    assert magnitude_label(np.nextafter(lo, 1.0)) == "small"
    assert magnitude_label(mid) == "small"
    assert magnitude_label(np.nextafter(mid, 1.0)) == "medium"
    assert magnitude_label(hi) == "medium"
    assert magnitude_label(np.nextafter(hi, 1.0)) == "large"
    assert magnitude_label(-1.0) == "large"
    assert magnitude_label(-lo) == "negligible"


def test_rankscores_spread_and_ties():
    rs = rankscores({"a": 0.9, "b": 0.8, "c": 0.7, "d": 0.6, "e": 0.5})
    assert [rs[t] for t in "abcde"] == [1.0, 0.75, 0.5, 0.25, 0.0]
    rs = rankscores({"x": 3.0, "y": 1.0, "z": 1.0})
    assert rs == {"x": 1.0, "y": 0.5, "z": 0.5}
    rs = rankscores({"x": 2.0, "y": 2.0})
    assert rs == {"x": 1.0, "y": 1.0}
    with pytest.raises(ConfigError):
        rankscores({"only": 1.0})


def test_rank_techniques_combines_metrics():
    values = {
        "a": {"fscore": 0.9, "auc": 0.9, "mcc": 0.9, "gmeasure": 0.1},
        "b": {"fscore": 0.5, "auc": 0.5, "mcc": 0.5, "gmeasure": 0.5},
        "c": {"fscore": 0.1, "auc": 0.1, "mcc": 0.1, "gmeasure": 0.9},
    }
    rows = rank_techniques(values)
    by_tech = {r.technique: r for r in rows}
    assert by_tech["a"].rankscores == (1.0, 1.0, 1.0, 0.0)
    assert by_tech["a"].mean_rank_score == pytest.approx(0.75, abs=1e-15)
    assert by_tech["b"].mean_rank_score == pytest.approx(0.5, abs=1e-15)
    assert [r.technique for r in rows] == ["a", "b", "c"]
    assert [r.rank for r in rows] == [1, 2, 3]


def test_rank_techniques_competition_ranks_on_ties():
    values = {
        "a": {"fscore": 0.9}, "b": {"fscore": 0.9}, "c": {"fscore": 0.1},
    }
    rows = rank_techniques(values, metrics=("fscore",))
    assert [(r.technique, r.rank) for r in rows] == [("a", 1), ("b", 1),
                                                     ("c", 3)]


def test_rank_techniques_rejects_missing_metric():
    with pytest.raises(ConfigError):
        rank_techniques({"a": {"fscore": 1.0}, "b": {}},
                        metrics=("fscore",))


def rank_stability(records, kind):
    """The rank SDs ranks.csv reports for one configuration."""
    return _rank_sds(_cell_means(records), kind)


def test_rank_stability_alternating_winners():
    records = []
    for window, split, better in ((1, 1, "a"), (1, 2, "b"),
                                  (2, 1, "a"), (2, 2, "b")):
        for tech in ("a", "b"):
            value = 0.9 if tech == better else 0.1
            records.append(make_record(tech, value, window=window,
                                       split=split))
    sds = rank_stability(records, "CC")
    # ranks 1,2,1,2 for both techniques: sample SD sqrt(1/3)
    assert sds["a"] == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
    assert sds["b"] == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)


def test_rank_stability_constant_winner_is_zero():
    records = []
    for split in (1, 2, 3):
        records.append(make_record("a", 0.9, split=split))
        records.append(make_record("b", 0.1, split=split))
    sds = rank_stability(records, "CC")
    assert sds == {"a": 0.0, "b": 0.0}


def test_rank_stability_skips_incomplete_cells():
    records = []
    for split in (1, 2):
        records.append(make_record("a", 0.9, split=split))
        records.append(make_record("b", 0.1, split=split))
    # a third cell covering only one technique must not contribute
    records.append(make_record("a", 0.1, split=3))
    sds = rank_stability(records, "CC")
    assert sds == {"a": 0.0, "b": 0.0}


def test_rank_stability_ignores_other_kinds():
    records = [make_record("a", 0.9), make_record("b", 0.1),
               make_record("a", 0.1, kind="IC"), make_record("b", 0.9, kind="IC")]
    assert rank_stability(records, "CC") == {"a": 0.0, "b": 0.0}
    # one technique cannot be ranked
    with pytest.raises(ConfigError, match="at least 2 techniques"):
        rank_stability([make_record("a", 0.9)], "CC")


def balanced_pair(n_pos, n_neg):
    n = n_pos + n_neg
    features = np.arange(n, dtype=float).reshape(n, 1)
    labels = np.array([True] * n_pos + [False] * n_neg)
    weights = np.linspace(1.0, 2.0, n)
    return TreatedPair(
        train_features=features, train_labels=labels, train_weights=weights,
        test_features=np.array([[0.5]]), test_labels=np.array([True]),
        test_versions=((("t", "1"), 1),))


def test_undersample_equalizes_classes():
    tp = balanced_pair(4, 10)
    out = undersample(tp, seed=3)
    assert int(out.train_labels.sum()) == 4
    assert int((~out.train_labels).sum()) == 4
    # surviving rows keep their original order and weights
    kept = [int(v) for v in out.train_features[:, 0]]
    assert kept == sorted(kept)
    for row_value, weight in zip(out.train_features[:, 0], out.train_weights):
        assert weight == tp.train_weights[int(row_value)]


def test_undersample_balanced_input_is_untouched():
    tp = balanced_pair(3, 3)
    assert undersample(tp, seed=1) is tp


def test_undersample_is_seed_deterministic():
    tp = balanced_pair(3, 20)
    a = undersample(tp, seed=9)
    b = undersample(tp, seed=9)
    assert np.array_equal(a.train_features, b.train_features)
    c = undersample(tp, seed=10)
    assert not np.array_equal(a.train_features, c.train_features)


def test_undersample_rejects_single_class():
    tp = balanced_pair(0, 5)
    with pytest.raises(BalancingError):
        undersample(tp, seed=0)
