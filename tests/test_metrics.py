"""Classification metrics: frozen fixtures plus a brute-force AUC oracle."""

import math
import random

import numpy as np
import pytest

from timeaware_cpdp.metrics import (ConfusionMatrix, auc, confusion,
                                    evaluate_pair, midranks, scores)
from timeaware_cpdp.tree import TreeParams, predict_proba_rows, train_tree
from timeaware_cpdp.treatments import TreatedPair


def test_confusion_counts_each_cell():
    cm = confusion([True, True, False, False, True],
                   [True, False, False, True, True])
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 1, 1)
    assert cm.total == 5


def test_confusion_validates_inputs():
    with pytest.raises(ValueError):
        confusion([True], [True, False])
    with pytest.raises(ValueError):
        confusion([], [])


def test_scores_fixture_values():
    s = scores(ConfusionMatrix(tp=3, fp=1, tn=4, fn=2))
    assert s.precision == pytest.approx(0.75, abs=1e-15)
    assert s.recall == pytest.approx(0.6, abs=1e-15)
    assert s.fscore == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-15)
    # pf = 0.2, so g-measure = 2 * 0.6 * 0.8 / 1.4
    assert s.gmeasure == pytest.approx(0.96 / 1.4, abs=1e-15)
    assert s.mcc == pytest.approx(10.0 / math.sqrt(600.0), abs=1e-15)


def test_scores_zero_denominators_return_zero():
    # nothing predicted positive
    s = scores(ConfusionMatrix(tp=0, fp=0, tn=5, fn=3))
    assert s.precision == 0.0
    assert s.fscore == 0.0
    assert s.mcc == 0.0
    # nothing actually positive
    s = scores(ConfusionMatrix(tp=0, fp=2, tn=5, fn=0))
    assert s.recall == 0.0
    assert s.fscore == 0.0
    assert s.mcc == 0.0
    # no clean instances: pf denominator empty
    s = scores(ConfusionMatrix(tp=4, fp=0, tn=0, fn=1))
    assert s.gmeasure == pytest.approx(2 * 0.8 * 1.0 / 1.8, abs=1e-15)
    assert s.mcc == 0.0
    # everything correct on a mixed set: mcc is 1
    s = scores(ConfusionMatrix(tp=4, fp=0, tn=3, fn=0))
    assert s.mcc == pytest.approx(1.0, abs=1e-15)


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
    keys = (("a", "1"), ("a", "1"), ("b", "2"), ("b", "2"), ("b", "2"))
    tp = TreatedPair(
        train_features=train_x, train_labels=train_y,
        train_weights=np.ones(4), test_features=test_x, test_labels=test_y,
        test_version_keys=keys, selected_attributes=(0,))
    tree = train_tree(tp, TreeParams())
    result = evaluate_pair(tree, tp)
    assert [(v.project_id, v.version_id) for v in result] == [("a", "1"),
                                                              ("b", "2")]
    first, second = result
    # version a/1: clean instance predicted clean, defective predicted defective
    assert (first.cm.tp, first.cm.fp, first.cm.tn, first.cm.fn) == (1, 0, 1, 0)
    assert not first.auc_degenerate
    assert first.scores.auc == pytest.approx(1.0, abs=0)
    # version b/2: the defective-looking clean instance at 9.8 is a false hit
    assert (second.cm.tp, second.cm.fp, second.cm.tn, second.cm.fn) == (1, 1, 1, 0)
    assert not second.auc_degenerate


def test_evaluate_pair_flags_single_class_versions():
    train_x = np.array([[0.0], [1.0], [9.0], [10.0]])
    train_y = np.array([False, False, True, True])
    test_x = np.array([[0.5], [1.5]])
    test_y = np.array([False, False])
    tp = TreatedPair(
        train_features=train_x, train_labels=train_y,
        train_weights=np.ones(4), test_features=test_x, test_labels=test_y,
        test_version_keys=(("c", "3"), ("c", "3")), selected_attributes=(0,))
    tree = train_tree(tp, TreeParams())
    (only,) = evaluate_pair(tree, tp)
    assert only.auc_degenerate
    assert only.scores.auc == 0.5


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
        test_version_keys=(("d", "4"), ("d", "4")), selected_attributes=(0,))
    tree = train_tree(tp, TreeParams())
    (p,) = predict_proba_rows(tree, [[1.0]])
    assert p == 0.5 if defective else 0.5 - 1e-9 < p < 0.5
    (only,) = evaluate_pair(tree, tp)
    if defective:
        assert (only.cm.tp, only.cm.fp) == (1, 1)
    else:
        assert (only.cm.tn, only.cm.fn) == (1, 1)
