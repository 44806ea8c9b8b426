"""Decision tree behavior: splits, pruning, weights, probabilities."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from timeaware_cpdp import tree as tree_module
from timeaware_cpdp.errors import UnusableDataError
from timeaware_cpdp.tree import (DecisionTree, TreeParams, _grow, _threshold,
                                 dump_tree, leaf_count, predict_proba_rows,
                                 train_tree)
from timeaware_cpdp.treatments import TreatedPair


def fit(train_x, train_y, weights=None, **param_kwargs) -> DecisionTree:
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y, dtype=bool)
    if weights is None:
        weights = np.ones(len(train_x))
    tp = TreatedPair(
        train_features=train_x,
        train_labels=train_y,
        train_weights=np.asarray(weights, dtype=float),
        test_features=train_x[:1],
        test_labels=train_y[:1],
        test_versions=((("t", "1"), 1),))
    return train_tree(tp, TreeParams(**param_kwargs))


def grow(train_x, train_y, min_leaf_weight=2.0):
    """The unpruned node lists train_tree grows on unit weights: feature,
    threshold, left, right, w_def, w_clean, lo, hi."""
    train_x = np.asarray(train_x, dtype=float)
    return _grow(train_x, np.asarray(train_y, dtype=bool),
                 np.ones(len(train_x)), min_leaf_weight)


def proba(tree, row) -> float:
    """The leaf probability of one row."""
    (p,) = predict_proba_rows(tree, [row])
    return float(p)


def depth(tree) -> int:
    """The number of splits on the longest root-to-leaf path."""
    return max(tree_module._depths(tree))


def test_separable_data_yields_midpoint_threshold():
    tree = fit([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]],
               [False, False, False, True, True, True])
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(6.5, abs=0)
    assert list(tree.right) == [2, -1, -1]
    assert depth(tree) == 1
    assert leaf_count(tree) == 2
    assert proba(tree, [6.4]) < 0.5 <= proba(tree, [6.6])
    # Laplace-smoothed leaf estimates: (0+1)/(3+2) and (3+1)/(3+2)
    assert proba(tree, [1.0]) == pytest.approx(0.2, abs=1e-12)
    assert proba(tree, [11.0]) == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("low,high", [
    # consecutive floats, the lower one with an odd last mantissa bit:
    # the midpoint rounds to the upper value
    (1.0000000000000002, 1.0000000000000004),
    # the sum overflows to +inf and to -inf
    (1e308, 1.5e308), (-1.5e308, -1e308)])
def test_threshold_falls_back_to_the_lower_value(low, high):
    # checked first: a split whose threshold sent every row left grew
    # the same node again without end
    assert _threshold(low, high) == low
    _, threshold, _, w_def, _, lo, hi = grow(
        [[low], [low], [high], [high]], [False, False, True, True])
    assert threshold[0] == low
    assert w_def == [2.0, 0.0, 2.0]
    assert (lo[0], hi[0]) in ((0, 2), (1, 2))


def test_constant_features_collapse_to_single_leaf():
    tree = fit([[5.0, 5.0]] * 4, [True, False, True, False])
    assert list(tree.feature) == [-1]
    assert leaf_count(tree) == 1
    assert depth(tree) == 0
    assert proba(tree, [5.0, 5.0]) == pytest.approx(0.5, abs=0)


def xor_dataset():
    # two clusters per axis; defective iff exactly one coordinate is high;
    # unequal quadrant sizes keep single-attribute gains positive
    rows, labels = [], []
    for (a, b), count in (((0.0, 0.0), 6), ((1.0, 1.0), 4),
                          ((0.0, 1.0), 5), ((1.0, 0.0), 5)):
        rows += [[a, b]] * count
        labels += [a != b] * count
    return np.array(rows), np.array(labels)


def test_xor_requires_depth_two_and_fits_exactly():
    x, y = xor_dataset()
    # sanity: no single axis-aligned cut separates the classes
    for attr in range(2):
        for thr in (0.5,):
            left = y[x[:, attr] <= thr]
            right = y[x[:, attr] > thr]
            assert 0 < left.sum() < len(left)
            assert 0 < right.sum() < len(right)
    tree = fit(x, y)
    assert depth(tree) == 2
    assert leaf_count(tree) >= 3
    assert ((predict_proba_rows(tree, x) >= 0.5) == y).all()


def test_tied_attributes_break_to_lowest_index():
    tree = fit([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]],
               [False, False, True, True])
    assert tree.feature[0] == 0


def test_tied_thresholds_break_to_lowest_value():
    # cuts at 0.5 and 1.5 produce mirror-image partitions with equal
    # gain ratio; the lower threshold must win
    feature, threshold, *_ = grow([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]],
                                  [False, False, True, True, False, False])
    assert feature[0] == 0
    assert threshold[0] == pytest.approx(0.5, abs=0)


def test_training_is_deterministic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(40, 3))
    y = rng.random(40) < 0.4
    y[:2] = [True, False]
    assert dump_tree(fit(x, y)) == dump_tree(fit(x, y))


def test_duplicated_instance_equals_doubled_weight():
    base_x = [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]
    base_y = [False, False, True, False, True, True]
    dup_x = base_x + [base_x[2]]
    dup_y = base_y + [base_y[2]]
    weights = [1.0, 1.0, 2.0, 1.0, 1.0, 1.0]
    a = fit(dup_x, dup_y)
    b = fit(base_x, base_y, weights=weights)
    assert dump_tree(a) == dump_tree(b)
    grid = [[v] for v in np.linspace(-1.0, 6.0, 29)]
    for row in grid:
        assert proba(a, row) == proba(b, row)


def test_pruning_collapses_noise():
    # alternating labels along one axis: splits have marginally positive
    # gain, but the pessimistic estimate favors a single leaf
    x = [[float(i)] for i in range(20)]
    y = [i % 2 == 1 for i in range(20)]
    unpruned_leaves = grow(x, y)[0].count(-1)
    assert unpruned_leaves > 1
    assert leaf_count(fit(x, y)) < unpruned_leaves


def test_pruned_leaf_count_never_exceeds_unpruned():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(10, 60))
        x = rng.normal(size=(n, 2))
        y = rng.random(n) < 0.35
        y[:2] = [True, False]
        assert leaf_count(fit(x, y)) <= grow(x, y)[0].count(-1)


def test_laplace_estimate_on_mixed_leaf():
    tree = fit([[1.0]] * 4, [True, True, True, False])
    assert proba(tree, [1.0]) == pytest.approx(4.0 / 6.0, abs=1e-15)


def test_laplace_estimates_on_pure_leaf():
    tree = fit([[1.0]] * 8, [True] * 8)
    assert proba(tree, [1.0]) == pytest.approx(0.9, abs=0)
    tree = fit([[1.0]] * 8, [False] * 8)
    assert proba(tree, [1.0]) == pytest.approx(0.1, abs=0)


def test_min_leaf_weight_blocks_thin_splits():
    # a perfect cut exists but would isolate a single instance
    feature, *_ = grow([[0.0], [1.0], [2.0]], [True, False, False],
                       min_leaf_weight=2.0)
    assert feature == [-1]
    # with a lower limit the cut is made
    feature, *_ = grow([[0.0], [1.0], [2.0]], [True, False, False],
                       min_leaf_weight=1.0)
    assert feature[0] == 0


def test_param_validation():
    with pytest.raises(ValueError):
        TreeParams(pruning_confidence=0.05)
    with pytest.raises(ValueError):
        TreeParams(pruning_confidence=0.31)
    with pytest.raises(ValueError):
        TreeParams(min_leaf_weight=0.0)
    TreeParams(pruning_confidence=0.10)
    TreeParams(pruning_confidence=0.30)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_min_leaf_weight_must_be_positive_and_finite(bad):
    # a NaN limit would fail every comparison and hold each tree to one leaf
    with pytest.raises(ValueError, match="min_leaf_weight"):
        TreeParams(min_leaf_weight=bad)


def test_each_fit_sorts_its_rows_once(monkeypatch):
    calls = []
    argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(tree_module.np, "argsort", counting_argsort)
    x, y = xor_dataset()
    feature, *_ = grow(x, y)
    # the root and both of its children were searched for a split
    assert sum(attr >= 0 for attr in feature) >= 3
    assert len(calls) == 1
    fit(x, y)
    assert len(calls) == 2


def test_train_tree_input_validation():
    with pytest.raises(UnusableDataError):
        fit([[1.0]], [True])
    with pytest.raises(UnusableDataError):
        fit([[1.0], [np.nan]], [True, False])
    tree = fit([[1.0], [2.0]], [True, False])
    # a matrix of the wrong shape is a programming error, not a data condition
    for rows in ([[1.0, 2.0]], [1.0]):
        with pytest.raises(ValueError, match="attribute values") as info:
            predict_proba_rows(tree, rows)
        assert not isinstance(info.value, UnusableDataError)
    with pytest.raises(UnusableDataError):
        predict_proba_rows(tree, [[np.inf]])
    with pytest.raises(UnusableDataError):
        predict_proba_rows(tree, [[1.0], [np.nan]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_train_tree_rejects_non_finite_or_non_positive_weights(bad):
    # a namespace, not a TreatedPair, so that the tree's own check is reached
    treated = SimpleNamespace(
        train_features=np.array([[1.0], [2.0], [3.0], [4.0]]),
        train_labels=np.array([True, True, False, False]),
        train_weights=np.array([1.0, 1.0, bad, 1.0]))
    with pytest.raises(UnusableDataError, match="finite and positive"):
        train_tree(treated)


def test_nodes_are_stored_in_dump_order():
    x, y = xor_dataset()
    tree = fit(x, y)
    lines = dump_tree(tree).splitlines()
    assert len(lines) == len(tree.feature)
    for i, (line, attr, right) in enumerate(zip(lines, tree.feature,
                                                tree.right)):
        if attr < 0:
            assert line.lstrip().startswith("leaf")
            assert right == -1
        else:
            assert line.lstrip().startswith(f"attr {attr} <=")
            assert i + 1 < right


def test_batch_prediction_matches_single_rows():
    x, y = xor_dataset()
    tree = fit(x, y)
    grid = np.array([[a, b] for a in (-1.0, 0.0, 0.5, 1.0, 2.0)
                     for b in (-1.0, 0.0, 0.5, 1.0, 2.0)])
    batch = predict_proba_rows(tree, grid)
    assert batch.tolist() == [proba(tree, row) for row in grid]
    assert predict_proba_rows(tree, np.empty((0, 2))).shape == (0,)
