"""The array tree and vectorised metrics against the recursive/loop oracle.

Random weighted data with tied values, constant columns, single-class
nodes and leaf-weight limits near the side weights must give the same
dump text, pruned (train_tree) and unpruned (_grow's node lists),
bit-identical probabilities, ranks and confusion counts, and the same
per-version scores as the code in tree_oracle.py. The
presorted grower must also give the per-node array grower's unpruned
node lists bit for bit, on data large enough that the sorted row lists
are partitioned many levels deep. A tree re-thresholded onto an input
with the same training order key must be the tree a fresh fit on that
input gives, bit for bit.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tree_oracle as oracle
from timeaware_cpdp.metrics import (auc, confusion, evaluate_pair, midranks,
                                    scores)
from timeaware_cpdp.tree import (DecisionTree, TreeParams, _grow, dump_tree,
                                 predict_proba_rows, rethreshold, train_tree,
                                 training_order)
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


def treated(x, y, w, test_x, test_y, keys):
    return TreatedPair(
        train_features=x, train_labels=y, train_weights=w,
        test_features=test_x, test_labels=test_y, test_version_keys=keys,
        selected_attributes=tuple(range(x.shape[1])))


def unpruned_tree(x, y, w, params):
    """The tree train_tree grows on x, y, w, before it is pruned."""
    feature, threshold, left, right, w_def, w_cln, lo, hi = _grow(
        x, y, w, params.min_leaf_weight)
    return DecisionTree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp), right=np.array(right, dtype=np.intp),
        w_defective=np.array(w_def, dtype=np.float64),
        w_clean=np.array(w_cln, dtype=np.float64),
        lo=np.array(lo, dtype=np.intp), hi=np.array(hi, dtype=np.intp),
        n_attributes=x.shape[1], params=params)


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
    keys = tuple(("p", str(v)) for v in rng.integers(0, 3, size=2 * n))
    pair = treated(x, y, w, test_x, test_y, keys)

    tree = train_tree(pair, params) if prune else unpruned_tree(x, y, w, params)
    root = oracle.train(x, y, w, params.pruning_confidence,
                        params.min_leaf_weight, prune)
    assert dump_tree(tree) == oracle.dump(root)

    probas = predict_proba_rows(tree, test_x)
    expected = np.array([oracle.predict_proba(root, row) for row in test_x])
    assert probas.tobytes() == expected.tobytes()

    # per-version scores of the loop pipeline the fast path replaces
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    result = evaluate_pair(tree, pair)
    assert [(v.project_id, v.version_id) for v in result] == list(groups)
    for score, idx in zip(result, groups.values()):
        tp, fp, tn, fn = oracle.confusion(expected[idx] >= 0.5, test_y[idx])
        assert (score.cm.tp, score.cm.fp, score.cm.tn, score.cm.fn) == (
            tp, fp, tn, fn)
        core = scores(score.cm)
        assert (score.scores.precision, score.scores.recall,
                score.scores.fscore, score.scores.gmeasure,
                score.scores.mcc) == tuple(core)
        labels = test_y[idx]
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        assert score.auc_degenerate == (n_pos == 0 or n_neg == 0)
        if not score.auc_degenerate:
            ranks = oracle.midranks(expected[idx])
            area = ((float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0)
                    / (n_pos * n_neg))
            assert score.scores.auc == area == auc(expected[idx], labels)


def node_bits(nodes):
    """Unpruned node lists with every float as its exact bits."""
    feature, threshold, left, right, w_def, w_cln = nodes
    return (list(feature), [float(t).hex() for t in threshold], list(left),
            list(right), [float(v).hex() for v in w_def],
            [float(v).hex() for v in w_cln])


@settings(max_examples=300, deadline=None)
@given(weighted_data())
def test_presorted_growth_matches_per_node_oracle(data):
    x, y, w, params = data
    grown = _grow(x, y, w, params.min_leaf_weight)
    expected = oracle.grow_nodes(x, y, w, params.min_leaf_weight)
    assert node_bits(grown[:6]) == node_bits(expected)
    # each split records the rows either side of its cut
    feature, threshold, *_, lo, hi = grown
    for attr, thr, lo_row, hi_row in zip(feature, threshold, lo, hi):
        if attr < 0:
            assert lo_row == hi_row == -1
        else:
            assert x[lo_row, attr] <= thr < x[hi_row, attr]


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


@settings(max_examples=300, deadline=None)
@given(weighted_data(), st.data())
def test_rethresholded_tree_matches_fresh_fit(data, draws):
    x, y, w, params = data
    mapped = [draws.draw(increasing_map(x[:, j])) for j in range(x.shape[1])]
    if draws.draw(st.booleans()):
        # rows in attribute 0's order, and a map that merges its lower
        # values through rounding: its sort stays, so only the tie mask
        # tells the order keys apart
        rows = np.argsort(x[:, 0], kind="stable")
        x, y, w = x[rows], y[rows], w[rows]
        scale, offset = draws.draw(st.sampled_from(((1e-17, 1.0), (1e-12, 1e6))))
        mapped = [x[:, 0] * scale + offset] + [m[rows] for m in mapped[1:]]
    mapped = np.column_stack(mapped)
    assert np.all(np.isfinite(mapped))
    # either side may be the input whose tree is shared
    if draws.draw(st.booleans()):
        x, mapped = mapped, x
    keys = (("p", "1"),)
    grown_on = treated(x, y, w, x[:1], y[:1], keys)
    new_input = treated(mapped, y, w, mapped[:1], y[:1], keys)
    order, key = training_order(grown_on)
    tree = train_tree(grown_on, params, order=order)
    fresh = train_tree(new_input, params)
    if training_order(new_input)[1] != key:
        event("order keys differ")
        return
    shared = rethreshold(tree, new_input)
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


def tree_bits(tree):
    """Every array of a tree, floats as their exact bits."""
    return (node_bits((tree.feature.tolist(), tree.threshold.tolist(),
                       tree.left.tolist(), tree.right.tolist(),
                       tree.w_defective.tolist(), tree.w_clean.tolist())),
            tree.lo.tolist(), tree.hi.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 7.0)),
                max_size=40))
def test_midranks_match_loop_oracle(values):
    assert midranks(values).tobytes() == oracle.midranks(values).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1,
                max_size=40))
def test_confusion_matches_loop_oracle(cells):
    predicted = [p for p, _ in cells]
    actual = [a for _, a in cells]
    cm = confusion(predicted, actual)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == oracle.confusion(predicted, actual)
