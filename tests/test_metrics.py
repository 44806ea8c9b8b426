"""Classification metrics: frozen fixtures plus a brute-force AUC oracle."""

import math
import random

import numpy as np
import pytest

from stats_oracle import midranks
from timeaware_cpdp.metrics import _table_scores, evaluate_pair, scores
from timeaware_cpdp.tree import TreeParams, predict_proba_rows, train_tree
from timeaware_cpdp.treatments import TreatedPair


def count_table(group, rank, labels, n_groups, n_ranks):
    """Rows counted per (group, rank, label): evaluate_pair's count table."""
    cell = (np.asarray(group) * n_ranks + rank) * 2 + np.asarray(labels, dtype=bool)
    return np.bincount(cell, minlength=2 * n_ranks * n_groups).reshape(
        n_groups, n_ranks, 2)


def auc(values, labels):
    """AUC of values against labels: the count-table AUC of one group."""
    levels, rank = np.unique(np.asarray(values, dtype=np.float64),
                             return_inverse=True)
    table = count_table(np.zeros(len(rank), dtype=np.intp), rank, labels, 1,
                        len(levels))
    ((*_, area, _),) = _table_scores(table, len(levels))
    return area


def test_confusion_cells_count_each_cell_per_group():
    predicted = np.array([True, True, False, False, True, False])
    actual = np.array([True, False, False, True, True, True])
    group = np.array([0, 0, 0, 0, 0, 2])
    # rank 1, from the cut up, is predicted defective; group 1 has no rows
    table = count_table(group, predicted.astype(np.intp), actual, 3, 2)
    # (tp, fp, tn, fn) per group
    assert [fields[:4] for fields in _table_scores(table, 1)] == [
        (2, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 1)]


def test_scores_fixture_values():
    precision, recall, fscore, gmeasure, mcc = scores(tp=3, fp=1, tn=4, fn=2)
    assert precision == pytest.approx(0.75, abs=1e-15)
    assert recall == pytest.approx(0.6, abs=1e-15)
    assert fscore == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-15)
    # pf = 0.2, so g-measure = 2 * 0.6 * 0.8 / 1.4
    assert gmeasure == pytest.approx(0.96 / 1.4, abs=1e-15)
    assert mcc == pytest.approx(10.0 / math.sqrt(600.0), abs=1e-15)


def test_scores_zero_denominators_return_zero():
    # nothing predicted positive
    precision, _, fscore, _, mcc = scores(tp=0, fp=0, tn=5, fn=3)
    assert (precision, fscore, mcc) == (0.0, 0.0, 0.0)
    # nothing actually positive
    _, recall, fscore, _, mcc = scores(tp=0, fp=2, tn=5, fn=0)
    assert (recall, fscore, mcc) == (0.0, 0.0, 0.0)
    # no clean instances: pf denominator empty
    _, _, _, gmeasure, mcc = scores(tp=4, fp=0, tn=0, fn=1)
    assert gmeasure == pytest.approx(2 * 0.8 * 1.0 / 1.8, abs=1e-15)
    assert mcc == 0.0
    # everything correct on a mixed set: mcc is 1
    *_, mcc = scores(tp=4, fp=0, tn=3, fn=0)
    assert mcc == pytest.approx(1.0, abs=1e-15)


def test_midranks_share_tied_positions():
    assert list(midranks([10.0, 20.0, 20.0, 30.0])) == [1.0, 2.5, 2.5, 4.0]
    assert list(midranks([7.0, 7.0, 7.0])) == [2.0, 2.0, 2.0]
    assert list(midranks([3.0, 1.0, 2.0])) == [3.0, 1.0, 2.0]


def test_auc_fixture():
    assert auc([0.9, 0.8, 0.7, 0.6],
               [True, False, True, False]) == pytest.approx(0.75, abs=1e-15)


def test_auc_ties_count_half():
    assert auc([0.5, 0.5], [True, False]) == pytest.approx(0.5, abs=0)
    assert auc([0.4, 0.4, 0.9], [False, True, True]) == pytest.approx(
        0.75, abs=1e-15)


def test_auc_single_class_sentinel():
    assert auc([0.2, 0.9], [True, True]) == 0.5
    assert auc([0.2, 0.9], [False, False]) == 0.5


def test_auc_perfect_and_inverted():
    assert auc([0.9, 0.1], [True, False]) == pytest.approx(1.0, abs=0)
    assert auc([0.1, 0.9], [True, False]) == pytest.approx(0.0, abs=0)


def brute_force_auc(values, labels):
    pos = [v for v, l in zip(values, labels) if l]
    neg = [v for v, l in zip(values, labels) if not l]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_matches_pairwise_count_with_heavy_ties():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(2, 40)
        values = [rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]) for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            continue
        assert auc(values, labels) == pytest.approx(
            brute_force_auc(values, labels), abs=1e-12)


def test_evaluate_pair_groups_by_version():
    train_x = np.array([[0.0], [1.0], [9.0], [10.0]])
    train_y = np.array([False, False, True, True])
    test_x = np.array([[0.5], [9.5], [0.2], [9.8], [9.9]])
    test_y = np.array([False, True, False, False, True])
    tp = TreatedPair(
        train_features=train_x, train_labels=train_y,
        train_weights=np.ones(4), test_features=test_x, test_labels=test_y,
        test_versions=((("a", "1"), 2), (("b", "2"), 3)))
    tree = train_tree(tp, TreeParams())
    result = evaluate_pair(tree, tp)
    assert [(v.test_project, v.test_version) for v in result] == [
        ("a", "1"), ("b", "2")]
    first, second = result
    # version a/1: clean instance predicted clean, defective predicted defective
    assert (first.tp, first.fp, first.tn, first.fn) == (1, 0, 1, 0)
    assert not first.auc_degenerate
    assert first.auc == pytest.approx(1.0, abs=0)
    # version b/2: the defective-looking clean instance at 9.8 is a false hit
    assert (second.tp, second.fp, second.tn, second.fn) == (1, 1, 1, 0)
    assert not second.auc_degenerate
    # the writer prints repr(): NumPy scalars would print as np.float64(...)
    for v in result:
        assert [type(x) for x in v] == (
            [str] * 2 + [int] * 4 + [float] * 6 + [bool])


def test_evaluate_pair_flags_single_class_versions():
    train_x = np.array([[0.0], [1.0], [9.0], [10.0]])
    train_y = np.array([False, False, True, True])
    test_x = np.array([[0.5], [1.5]])
    test_y = np.array([False, False])
    tp = TreatedPair(
        train_features=train_x, train_labels=train_y,
        train_weights=np.ones(4), test_features=test_x, test_labels=test_y,
        test_versions=((("c", "3"), 2),))
    tree = train_tree(tp, TreeParams())
    (only,) = evaluate_pair(tree, tp)
    assert only.auc_degenerate
    assert only.auc == 0.5


@pytest.mark.parametrize("clean_weight,defective", [
    # equal class weights give a leaf probability of exactly 0.5
    (1.0, True),
    # a little more clean weight puts it just below 0.5
    (1.0 + 1e-9, False)])
def test_evaluate_pair_threshold_is_inclusive(clean_weight, defective):
    # constant features give one leaf
    train_x = np.array([[1.0], [1.0], [1.0], [1.0]])
    train_y = np.array([True, False, True, False])
    tp = TreatedPair(
        train_features=train_x, train_labels=train_y,
        train_weights=np.array([1.0, clean_weight, 1.0, clean_weight]),
        test_features=np.array([[1.0], [1.0]]),
        test_labels=np.array([True, False]),
        test_versions=((("d", "4"), 2),))
    tree = train_tree(tp, TreeParams())
    (p,) = predict_proba_rows(tree, [[1.0]])
    assert p == 0.5 if defective else 0.5 - 1e-9 < p < 0.5
    (only,) = evaluate_pair(tree, tp)
    if defective:
        assert (only.tp, only.fp) == (1, 1)
    else:
        assert (only.tn, only.fn) == (1, 1)
