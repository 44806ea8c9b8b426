"""The array tree and vectorised metrics against the recursive/loop oracle.

Random weighted data with tied values, constant columns, single-class
nodes and leaf-weight limits near the side weights must give the same
dump text, pruned (train_tree) and unpruned (_grow's node lists, with
the thresholds train_tree sets from their lo and hi rows),
bit-identical probabilities, ranks and confusion counts, and the same
per-version scores as the code in tree_oracle.py. The
presorted grower must also give the per-node array grower's unpruned
node lists bit for bit, on data large enough that the sorted row lists
are partitioned many levels deep, and a small fit grown again after a
wider and larger one, whose scratch cells held other values, must give
its first node lists. A tree re-thresholded onto an input with the same
training order key must be the tree a fresh fit on that input gives,
bit for bit. Two order keys must be equal exactly when the oracle's
SHA-256 keys of the same inputs are, and the sorts must be the same.
Every grown, pruned and re-thresholded tree must keep the pre-order
layout: split i's left subtree is nodes i + 1 .. right[i] - 1, and a
walk from the root reaches each node once. evaluate_pair, which scores
from one count table per leaf probability, must give the VersionScores
of the row-level scoring in metrics_oracle.py bit for bit, also when
distinct leaves share a probability. The descent that takes rows to
their leaves must reach the leaves of the level-by-level descent in
tree_oracle.py, for rows on and just above the thresholds and for a
matrix of no rows.
"""

from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import metrics_oracle
import tree_oracle as oracle
from stats_oracle import midranks
from test_metrics import auc, count_table
from timeaware_cpdp import tree as tree_module
from timeaware_cpdp.metrics import _table_scores, evaluate_pair, scores
from timeaware_cpdp.tree import (DecisionTree, TreeParams, _grow, _thresholds,
                                 dump_tree, leaf_count, predict_proba_rows,
                                 rethreshold, train_tree, training_order)
from timeaware_cpdp.treatments import TreatedPair


# few distinct values per column, so most columns have ties; a column of
# level 0 only is constant
LEVELS = (-2.5, 0.0, 0.1, 1.0, 3.0, 1e6)
# every candidate threshold, to test rows that fall exactly on one
MIDPOINTS = tuple((a + b) / 2.0 for a in LEVELS for b in LEVELS if a < b)
# weights such as 0.1 are inexact in binary, so sums depend on their order
WEIGHTS = (0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0, 1.0, 1.0, 1.5, 2.0, 3.0)


@st.composite
def weighted_data(draw):
    n = draw(st.integers(2, 300))
    m = draw(st.integers(1, 8))
    spread = draw(st.lists(st.integers(1, len(LEVELS)), min_size=m, max_size=m))
    # the cells come from a drawn seed: drawing a few thousand of them one
    # at a time would take most of the test's time
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.array(LEVELS)[rng.integers(0, spread, size=(n, m))]
    y = rng.random(n) < draw(st.sampled_from((0.1, 0.5, 0.9)))
    if draw(st.booleans()):
        # labels that follow one attribute give deeper, purer trees
        y = y ^ (x[:, 0] > 0.5)
    w = np.array(WEIGHTS)[rng.integers(0, len(WEIGHTS), size=n)]
    min_leaf = draw(st.sampled_from((0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 50.0)))
    cf = draw(st.sampled_from((0.10, 0.25, 0.30)))
    return x, y, w, TreeParams(pruning_confidence=cf, min_leaf_weight=min_leaf)


def treated(x, y, w, test_x, test_y, versions):
    return TreatedPair(
        train_features=x, train_labels=y, train_weights=w,
        test_features=test_x, test_labels=test_y, test_versions=versions)


def random_versions(rng, n):
    """Versions of random length that together hold n rows."""
    counts, left = [], n
    while left:
        counts.append(int(rng.integers(1, left + 1)))
        left -= counts[-1]
    return tuple((("p", str(i)), count) for i, count in enumerate(counts))


def with_thresholds(x, nodes):
    """_grow's node lists on x as feature, threshold, right, w_def,
    w_clean, lo, hi: the thresholds are set from lo and hi by the setter
    train_tree uses."""
    feature, right, w_def, w_cln, lo, hi = nodes
    threshold = _thresholds(x, np.array(feature), np.array(lo), np.array(hi))
    return feature, threshold.tolist(), right, w_def, w_cln, lo, hi


def unpruned_tree(x, y, w, params):
    """The tree train_tree grows on x, y, w, before it is pruned."""
    feature, threshold, right, w_def, w_cln, lo, hi = with_thresholds(
        x, _grow(x, y, w, params.min_leaf_weight))
    return DecisionTree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        right=np.array(right, dtype=np.intp),
        w_defective=np.array(w_def, dtype=np.float64),
        w_clean=np.array(w_cln, dtype=np.float64),
        lo=np.array(lo, dtype=np.intp), hi=np.array(hi, dtype=np.intp),
        n_attributes=x.shape[1])


def check_layout(tree):
    """The tree's arrays hold one pre-order tree with implicit left children.

    Split i's left child is node i + 1 and its left subtree spans
    i + 1 .. right[i] - 1; a leaf has right, lo and hi -1 and a NaN
    threshold; a walk from the root reaches every node exactly once.
    """
    n = len(tree.feature)
    for array in (tree.threshold, tree.right, tree.w_defective,
                  tree.w_clean, tree.lo, tree.hi):
        assert len(array) == n
    leaf = tree.feature < 0
    assert np.all(tree.right[leaf] == -1)
    assert np.all(tree.lo[leaf] == -1) and np.all(tree.hi[leaf] == -1)
    assert np.all(np.isnan(tree.threshold[leaf]))
    assert not np.any(np.isnan(tree.threshold[~leaf]))
    reached = [0] * n

    def last(i):
        """The last node of the subtree rooted at i."""
        reached[i] += 1
        if tree.feature[i] < 0:
            return i
        assert last(i + 1) == tree.right[i] - 1
        return last(int(tree.right[i]))

    assert last(0) == n - 1
    assert reached == [1] * n


@settings(max_examples=300, deadline=None)
@given(weighted_data(), st.booleans(), st.integers(0, 2**32 - 1))
def test_tree_matches_recursive_oracle(data, prune, seed):
    x, y, w, params = data
    n, m = x.shape
    rng = np.random.default_rng(seed)
    # test rows: the training rows, then rows on candidate thresholds
    on_cut = np.array(MIDPOINTS)[rng.integers(0, len(MIDPOINTS), size=(n, m))]
    test_x = np.vstack([x, on_cut])
    test_y = np.concatenate([y, y[::-1]])
    # the test rows fall into consecutive versions of random length
    versions = random_versions(rng, 2 * n)
    pair = treated(x, y, w, test_x, test_y, versions)

    tree = train_tree(pair, params) if prune else unpruned_tree(x, y, w, params)
    check_layout(tree)
    root = oracle.train(x, y, w, params.pruning_confidence,
                        params.min_leaf_weight, prune)
    assert dump_tree(tree) == oracle.dump(root)

    probas = predict_proba_rows(tree, test_x)
    expected = np.array([oracle.predict_proba(root, row) for row in test_x])
    assert probas.tobytes() == expected.tobytes()

    # per-version scores of the loop pipeline the fast path replaces
    bounds = np.cumsum([0] + [count for _, count in versions])
    result = evaluate_pair(tree, pair)
    assert [(v.test_project, v.test_version) for v in result] == [
        key for key, _ in versions]
    for score, start, stop in zip(result, bounds[:-1], bounds[1:]):
        idx = slice(start, stop)
        tp, fp, tn, fn = oracle.confusion(expected[idx] >= 0.5, test_y[idx])
        assert (score.tp, score.fp, score.tn, score.fn) == (tp, fp, tn, fn)
        assert (score.precision, score.recall, score.fscore, score.gmeasure,
                score.mcc) == scores(tp, fp, tn, fn)
        labels = test_y[idx]
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        assert score.auc_degenerate == (n_pos == 0 or n_neg == 0)
        if not score.auc_degenerate:
            ranks = oracle.midranks(expected[idx])
            area = ((float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0)
                    / (n_pos * n_neg))
            assert score.auc == area == auc(expected[idx], labels)


def node_bits(nodes):
    """Unpruned node lists with every float as its exact bits."""
    feature, threshold, right, w_def, w_cln = nodes
    return (list(feature), [float(t).hex() for t in threshold], list(right),
            [float(v).hex() for v in w_def], [float(v).hex() for v in w_cln])


@settings(max_examples=300, deadline=None)
@given(weighted_data())
def test_presorted_growth_matches_per_node_oracle(data):
    x, y, w, params = data
    grown = with_thresholds(x, _grow(x, y, w, params.min_leaf_weight))
    expected = oracle.grow_nodes(x, y, w, params.min_leaf_weight)
    # the oracle stores each split's left child: the node right after it
    assert expected[2] == [i + 1 if attr >= 0 else -1
                           for i, attr in enumerate(expected[0])]
    assert node_bits(grown[:5]) == node_bits(expected[:2] + expected[3:])
    # each split records the rows either side of its cut
    feature, threshold, *_, lo, hi = grown
    for attr, thr, lo_row, hi_row in zip(feature, threshold, lo, hi):
        if attr < 0:
            assert lo_row == hi_row == -1
        else:
            assert x[lo_row, attr] <= thr < x[hi_row, attr]


def grow_watching_last_cuts(x, y, w, min_leaf):
    """_grow's node lists with their thresholds, and for each split search
    whether the cut-mask cells of its last cuts held a True before it ran
    and after it ran."""
    before, after = [], []
    search = tree_module._split

    def watched(ids, *args):
        d, m = ids.shape
        last_cuts = args[-1].ok[m - 1:d * m:m]
        before.append(bool(last_cuts.any()))
        found = search(ids, *args)
        after.append(bool(last_cuts.any()))
        return found

    with mock.patch.object(tree_module, "_split", watched):
        nodes = _grow(x, y, w, min_leaf)
    return with_thresholds(x, nodes), before, after


def test_scratch_carries_nothing_between_nodes_or_fits():
    # a small fit, a wider and larger one, then the small one again: each
    # fit's scratch comes from np.empty, and a node's cells are the first
    # cells of the larger nodes grown before it. The weights' sums round,
    # so a node's last cut may leave a right side of a few ulps, which
    # passes this min_leaf: only clearing that cut keeps it out of the mask
    rng = np.random.default_rng(3)
    fits = []
    for n, d in ((40, 2), (400, 7)):
        x = np.array(LEVELS)[rng.integers(0, len(LEVELS), size=(n, d))]
        x[:, 0] += rng.normal(size=n)
        y = (x[:, 0] + rng.normal(size=n)) > 0.5
        w = np.array(WEIGHTS)[rng.integers(0, len(WEIGHTS), size=n)] * 1e3
        fits.append((x, y, w, 1e-11))
    small, large = fits
    first, *_ = grow_watching_last_cuts(*small)
    grown, before, after = grow_watching_last_cuts(*large)
    again, *_ = grow_watching_last_cuts(*small)
    assert any(before) and not any(after)
    for nodes, (x, y, w, min_leaf) in ((first, small), (grown, large)):
        expected = oracle.grow_nodes(x, y, w, min_leaf)
        assert node_bits(nodes[:5]) == node_bits(expected[:2] + expected[3:])
    assert (node_bits(again[:5]), again[5:]) == (node_bits(first[:5]), first[5:])


@st.composite
def increasing_map(draw, column):
    """A map of one column's values, strictly increasing before rounding.

    log1p plus a shift, as camargocruz09 applies; an affine map, whose
    rounding can merge neighbouring values; consecutive floats,
    where a midpoint rounds up to the upper value when the lower one's
    last mantissa bit is odd; and magnitudes whose sums overflow.
    """
    kind = draw(st.sampled_from(("log1p", "affine", "adjacent", "overflow")))
    if kind == "log1p":
        shift = draw(st.sampled_from((-3.7, 0.0, 0.31, 12.5)))
        return np.log1p(column - column.min()) + shift
    if kind == "affine":
        scale = draw(st.sampled_from((1e-17, 1e-12, 0.3, 1.0, 7.0, 1e9)))
        offset = draw(st.sampled_from((0.0, 1.0, -2.5, 1e6)))
        return column * scale + offset
    rank = np.unique(column, return_inverse=True)[1].reshape(column.shape)
    if kind == "adjacent":
        base = draw(st.sampled_from((1.0, 3.0, 1e-300, -7.5)))
        bits = np.float64(base).view(np.int64) + draw(st.integers(0, 3))
        # float64 bits of one sign are ordered like the values they encode
        step = 1 if base > 0 else -1
        return (bits + step * rank).view(np.float64)
    # every sum overflows, or only the sums of the upper levels
    low, step = draw(st.sampled_from(((9e307, 1.5e307), (-1.65e308, 1.5e307),
                                      (0.0, 3.4e307))))
    return low + step * rank


@st.composite
def shared_order_inputs(draw):
    """x, mapped, y, w, params: two inputs whose order keys are often equal.

    mapped takes each attribute of x through an increasing_map; either
    side may come first.
    """
    x, y, w, params = draw(weighted_data())
    mapped = [draw(increasing_map(x[:, j])) for j in range(x.shape[1])]
    if draw(st.booleans()):
        # rows in attribute 0's order, and a map that merges its lower
        # values through rounding: its sort stays, so only the tie mask
        # tells the order keys apart
        rows = np.argsort(x[:, 0], kind="stable")
        x, y, w = x[rows], y[rows], w[rows]
        scale, offset = draw(st.sampled_from(((1e-17, 1.0), (1e-12, 1e6))))
        mapped = [x[:, 0] * scale + offset] + [m[rows] for m in mapped[1:]]
    mapped = np.column_stack(mapped)
    assert np.all(np.isfinite(mapped))
    if draw(st.booleans()):
        x, mapped = mapped, x
    return x, mapped, y, w, params


VERSIONS = ((("p", "1"), 1),)


@settings(max_examples=300, deadline=None)
@given(shared_order_inputs())
def test_rethresholded_tree_matches_fresh_fit(data):
    x, mapped, y, w, params = data
    # x's tree is the one shared
    grown_on = treated(x, y, w, x[:1], y[:1], VERSIONS)
    new_input = treated(mapped, y, w, mapped[:1], y[:1], VERSIONS)
    order, key = training_order(grown_on)
    tree = train_tree(grown_on, params, order=order)
    fresh = train_tree(new_input, params)
    if training_order(new_input)[1] != key:
        event("order keys differ")
        return
    shared = rethreshold(tree, new_input)
    for t in (tree, fresh, shared):
        check_layout(t)
    assert tree_bits(shared) == tree_bits(fresh)
    split = shared.feature >= 0
    below = mapped[shared.lo[split], shared.feature[split]]
    above = mapped[shared.hi[split], shared.feature[split]]
    with np.errstate(over="ignore"):
        mid = (below + above) / 2.0
    if np.any((mid < below) | (mid >= above)):
        event("shared; a midpoint of the new input fell back to the lower value")
    else:
        event("shared; every threshold a midpoint")


@st.composite
def key_inputs(draw):
    """Two (x, y, w) training inputs: a shared-order pair or independent draws."""
    if draw(st.booleans()):
        x, mapped, y, w, _ = draw(shared_order_inputs())
        return (x, y, w), (mapped, y, w)
    return tuple(draw(weighted_data())[:3] for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(key_inputs())
def test_order_key_matches_sha256_oracle(inputs):
    keys, oracle_keys = [], []
    for x, y, w in inputs:
        order, key = training_order(treated(x, y, w, x[:1], y[:1], VERSIONS))
        oracle_order, oracle_key = oracle.training_order(x, y, w)
        assert (order.dtype, order.shape) == (oracle_order.dtype,
                                              oracle_order.shape)
        assert order.tobytes() == oracle_order.tobytes()
        assert len(key) == 32
        keys.append(key)
        oracle_keys.append(oracle_key)
    assert (keys[0] == keys[1]) == (oracle_keys[0] == oracle_keys[1])
    event("keys equal" if keys[0] == keys[1] else "keys differ")


def tree_bits(tree):
    """Every array of a tree, floats as their exact bits."""
    return (node_bits((tree.feature.tolist(), tree.threshold.tolist(),
                       tree.right.tolist(), tree.w_defective.tolist(),
                       tree.w_clean.tolist())),
            tree.lo.tolist(), tree.hi.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 7.0, np.nan)),
                max_size=40))
def test_midranks_match_loop_oracle(values):
    ranks = midranks(values).tobytes()
    assert ranks == oracle.midranks(values).tobytes()
    # and the grouped midranks they replace, on a single group
    v = np.asarray(values, dtype=np.float64)
    assert ranks == metrics_oracle.midranks_within(
        v, np.zeros(len(v), dtype=np.intp)).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()),
                min_size=1, max_size=40))
def test_confusion_cells_match_loop_oracle(cells):
    group, predicted, actual = (np.array(column) for column in zip(*cells))
    # rank 1, from the cut up, is predicted defective
    table = count_table(group, predicted.astype(np.intp), actual, 4, 2)
    for g, (tp, fp, tn, fn, *_) in enumerate(_table_scores(table, 1)):
        mine = group == g
        assert (tp, fp, tn, fn) == oracle.confusion(predicted[mine],
                                                    actual[mine])


@settings(max_examples=300, deadline=None)
@given(weighted_data(), st.booleans(), st.integers(0, 2**32 - 1))
def test_evaluate_pair_matches_row_level_oracle(data, prune, seed):
    x, y, w, params = data
    n, m = x.shape
    rng = np.random.default_rng(seed)
    test_x = np.vstack([x, np.array(MIDPOINTS)[
        rng.integers(0, len(MIDPOINTS), size=(n, m))]])
    test_y = rng.random(2 * n) < rng.choice((0.0, 0.1, 0.5, 1.0))
    pair = treated(x, y, w, test_x, test_y, random_versions(rng, 2 * n))
    tree = train_tree(pair, params) if prune else unpruned_tree(x, y, w, params)
    leaf = tree.feature < 0
    probas = tree_module._probas(tree)[leaf]
    if len(np.unique(probas)) < len(probas):
        event("leaves share a probability")
    result = evaluate_pair(tree, pair)
    assert repr(result) == repr(metrics_oracle.evaluate_pair(tree, pair))


@settings(max_examples=300, deadline=None)
@given(weighted_data(), st.booleans(), st.integers(0, 300),
       st.integers(0, 2**32 - 1))
def test_descent_matches_level_by_level_oracle(data, prune, n_rows, seed):
    x, y, w, params = data
    m = x.shape[1]
    pair = treated(x, y, w, x, y, ((("p", "1"), len(x)),))
    tree = train_tree(pair, params) if prune else unpruned_tree(x, y, w, params)
    # values on the tree's own thresholds and one step above them, on
    # every candidate cut and on the training levels
    cuts = tree.threshold[tree.feature >= 0]
    values = np.concatenate([LEVELS, MIDPOINTS, cuts, np.nextafter(cuts, np.inf)])
    rng = np.random.default_rng(seed)
    rows = values[rng.integers(0, len(values), size=(n_rows, m))]
    event(f"{leaf_count(tree)} leaves" if leaf_count(tree) < 4 else "4+ leaves")
    for matrix in (rows, x, np.empty((0, m))):
        leaves = tree_module._leaves(tree, matrix)
        assert leaves.dtype == np.intp
        assert leaves.tolist() == oracle.leaves_by_level(tree, matrix).tolist()


def test_evaluate_pair_ranks_tied_leaves_together():
    # leaves 1 and 4 hold the same weights, so their rows share a
    # probability, 0.6; leaf 3's is 1/3
    tree = DecisionTree(
        feature=np.array([0, -1, 0, -1, -1]),
        threshold=np.array([0.5, np.nan, 1.5, np.nan, np.nan]),
        right=np.array([2, -1, 4, -1, -1]),
        w_defective=np.array([5.0, 2.0, 3.0, 1.0, 2.0]),
        w_clean=np.array([5.0, 1.0, 4.0, 3.0, 1.0]),
        lo=np.array([0, -1, 1, -1, -1]), hi=np.array([1, -1, 2, -1, -1]),
        n_attributes=1)
    check_layout(tree)
    test_x = np.array([[0.0], [1.0], [0.0], [2.0], [2.0],  # every leaf
                       [0.0], [2.0], [1.0],  # one class
                       [2.0], [2.0], [2.0]])  # one leaf
    test_y = np.array([True, False, True, False, False,
                       False, False, False,
                       True, False, True])
    versions = ((("a", "1"), 5), (("b", "1"), 3), (("c", "1"), 3))
    pair = treated(test_x, test_y, np.ones(len(test_y)), test_x, test_y, versions)
    result = evaluate_pair(tree, pair)
    assert repr(result) == repr(metrics_oracle.evaluate_pair(tree, pair))
    every, one_class, one_leaf = result
    # the two defective rows, on leaf 1, tie with the two clean ones on
    # leaf 4 and beat the third
    assert (every.tp, every.fp, every.tn, every.fn) == (2, 2, 1, 0)
    assert (every.auc, every.auc_degenerate) == (4 / 6, False)
    assert (one_class.tp, one_class.fp, one_class.tn, one_class.fn) == (0, 2, 1, 0)
    assert (one_class.auc, one_class.auc_degenerate) == (0.5, True)
    assert (one_leaf.tp, one_leaf.fp, one_leaf.tn, one_leaf.fn) == (2, 1, 0, 0)
    assert (one_leaf.auc, one_leaf.auc_degenerate) == (0.5, False)
