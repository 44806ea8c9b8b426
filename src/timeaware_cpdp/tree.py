"""C4.5-style binary decision tree over numeric attributes.

A tree is a set of flat node arrays in pre-order: node 0 is the root
and a split's left child is the node right after it, so unlike
scikit-learn's ``Tree`` the arrays hold no ``children_left``.
``dump_tree`` prints the nodes in that order, so its text (the
``--dump-trees`` format) reads the arrays top to bottom.

Training is fully deterministic: a split is a cut between adjacent
distinct sorted values of an attribute, chosen by gain ratio, with ties
broken by the lowest attribute index and then the lowest cut. All
counts and entropies use instance weights, so a duplicated instance and
a doubled weight produce the same tree. Each fit sorts its rows by
every attribute once. A split sends the rows up to its cut left by
their sorted position, and every node passes its sorted rows to its
children by a stable partition, so every node scans its attributes in
the order its own stable sort would give. The split search writes into
work arrays allocated once per fit and sized for its root, not into
arrays allocated at every node.
Every tree is pruned by the classic pessimistic error estimate with a
confidence parameter, applied bottom-up with subtree replacement only
(no subtree raising). One descent, ``_leaves``, takes all rows of a
matrix to their leaves, for prediction and scoring: each split divides
the rows that reach it between its children.

A tree therefore depends on its training input only through each
attribute's sorted order and ties, the labels and the weights; the
values set only the thresholds, after growth and by one rule for a
fresh fit and a shared tree alike, from the two training rows either
side of each cut. ``training_order`` gives the sort and a key of those,
and ``rethreshold`` turns a tree into the tree of another input with
the same key.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._digest import blake2b
from .errors import UnusableDataError
from .treatments import TreatedPair

_GAIN_EPS = 1e-12
# ndarray.sum without its Python wrapper: the same pairwise summation
_sum = np.add.reduce


@dataclass(frozen=True)
class TreeParams:
    """Training parameters.

    pruning_confidence must lie in [0.10, 0.30]; smaller values prune
    more aggressively. min_leaf_weight is the smallest total instance
    weight a split may leave on either side; nodes lighter than twice
    this weight are not split at all. It must be positive and finite.
    """

    pruning_confidence: float = 0.25
    min_leaf_weight: float = 2.0

    def __post_init__(self) -> None:
        if not 0.10 <= self.pruning_confidence <= 0.30:
            raise ValueError(
                f"pruning_confidence {self.pruning_confidence} outside [0.10, 0.30]")
        if not (math.isfinite(self.min_leaf_weight) and self.min_leaf_weight > 0):
            raise ValueError(
                f"min_leaf_weight must be positive and finite, got {self.min_leaf_weight}")


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Parallel node arrays in pre-order; node 0 is the root.

    feature is the attribute a split tests, -1 at a leaf. A row goes to
    the left child when its value is <= threshold (NaN at a leaf), else
    to the right one. Split i's left child is node i + 1, and its left
    subtree spans nodes i + 1 .. right[i] - 1; right is -1 at a leaf.
    w_defective and w_clean are the training weights reaching the node.
    lo and hi are the training rows either side of a split's cut, -1 at
    a leaf: growth sends the rows up to the cut left, and the threshold
    is set afterwards from lo's and hi's values.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    w_defective: np.ndarray
    w_clean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_attributes: int


def _threshold(below: float, above: float) -> float:
    """The threshold of a cut between two adjacent distinct sorted values.

    Their midpoint, unless rounding lands it on the upper value or the
    sum overflows; then the lower value, as scikit-learn does. Either
    way the rows up to the cut, and only those, go left.
    """
    mid = (below + above) / 2.0
    return mid if below <= mid < above else below


def _thresholds(x: np.ndarray, feature: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """Each split's threshold from its lo and hi rows of x; NaN at a leaf."""
    threshold = np.full(len(feature), math.nan)
    split = np.flatnonzero(feature >= 0)
    attr = feature[split]
    threshold[split] = [_threshold(below, above) for below, above in zip(
        x[lo[split], attr].tolist(), x[hi[split], attr].tolist())]
    return threshold


class _Scratch:
    """The split search's work arrays for one fit, sized for its root.

    A node of m rows over d attributes uses the first d·m cells of each
    per-cell array and, for its k admissible cuts (k < d·m), the first
    3k or 6k + 2 cells of each per-cut one. So no node allocates an
    array that grows with its rows, except the k cut indices that
    nonzero returns. A node writes every cell before it reads it, so
    nothing carries over from a larger node or from what np.empty
    hands back.
    """

    __slots__ = ("index", "values", "cum", "remaining", "ok", "at_cuts",
                 "share", "no_class", "h")

    def __init__(self, d: int, n: int):
        cells = d * n
        self.index = np.empty(cells, dtype=np.intp)
        self.values = np.empty(cells)
        self.cum = np.empty(2 * cells)
        self.remaining = np.empty(cells)
        self.ok = np.empty(cells, dtype=bool)
        self.at_cuts = np.empty(3 * cells)
        self.share = np.empty(6 * cells + 2)
        self.no_class = np.empty(6 * cells + 2, dtype=bool)
        self.h = np.empty(6 * cells + 2)


def _split(ids: np.ndarray, xt: np.ndarray, offsets: np.ndarray,
           weights: np.ndarray, total_w: float, total_d: float,
           min_leaf: float,
           scratch: _Scratch) -> tuple[int, int] | None:
    """Highest gain-ratio admissible split of one node, or None.

    A split is its attribute and its cut: ids[attr, :cut + 1] go left.

    ids holds the node's rows sorted by each attribute, one row of ids
    per attribute. xt is the training matrix attribute by attribute,
    flattened, and offsets each attribute's start in it; weights stacks
    the instance weights over the defective instances' weights. Cut r
    of an attribute lies after its r-th smallest value. Admissible: the
    values on both sides differ, both sides carry at least min_leaf
    weight and the information gain is positive. Ties keep the first
    attribute, then the first cut.

    Most nodes are small, so the cost is the number of NumPy calls:
    ufuncs are called directly, writing into the fit's scratch. Every
    value is computed by the same operations in the same order as a
    clip/where form that sorts each node anew (kept as the test oracle),
    so trees match it bit for bit. Clamps that cannot bind are left out:
    a running sum of defective weights never exceeds the running sum of
    all weights it is part of, so every left side's share already lies
    in [0, 1], and _grow passes a positive total_d.
    """
    d, m = ids.shape
    cells = d * m
    index = np.add(ids, offsets, out=scratch.index[:cells].reshape(d, m))
    # mode="clip": the indices are in range, and "raise" would buffer out
    vs = xt.take(index, out=scratch.values[:cells].reshape(d, m), mode="clip")
    cum = weights.take(ids, axis=1, out=scratch.cum[:2 * cells].reshape(2, d, m),
                       mode="clip")
    cum.cumsum(axis=2, out=cum)
    rw = np.subtract(total_w, cum[0], out=scratch.remaining[:cells].reshape(d, m))
    np.maximum(rw, 0.0, out=rw)
    ok = scratch.ok[:cells].reshape(d, m)
    np.greater(vs[:, 1:], vs[:, :-1], out=ok[:, :-1])
    # the last cut of an attribute would leave its right side empty
    ok[:, -1] = False
    # the per-cut arrays are free until the cuts are known: h holds each
    # cut's lighter side and no_class whether it is heavy enough
    lighter = np.minimum(cum[0], rw, out=scratch.h[:cells].reshape(d, m))
    ok &= np.greater_equal(lighter, min_leaf,
                           out=scratch.no_class[:cells].reshape(d, m))
    cuts = ok.ravel().nonzero()[0]
    k = len(cuts)
    if k == 0:
        return None
    at_cuts = scratch.at_cuts[:3 * k].reshape(3, k)
    cum.reshape(2, -1).take(cuts, axis=1, out=at_cuts[:2], mode="clip")
    rw.ravel().take(cuts, out=at_cuts[2], mode="clip")
    lw, ld, rw = at_cuts

    # the defective shares of the node, of every left side and of every
    # right side, then every left side's share of the node's weight; the
    # second half holds one minus each
    n_h = 2 * k + 1
    half = n_h + k
    share = scratch.share[:2 * half]
    share[0] = min(total_d / total_w, 1.0)
    np.divide(ld, lw, out=share[1:k + 1])
    right = share[k + 1:n_h]
    np.subtract(total_d, ld, out=right)
    np.maximum(right, 0.0, out=right)
    np.minimum(right, rw, out=right)
    right /= rw
    np.divide(lw, total_w, out=share[n_h:half])
    np.subtract(1.0, share[:half], out=share[half:])
    # a class share of 0 adds no entropy: its log2 is taken of 1 instead
    # (adding False leaves every other share as it is); weight shares
    # are never replaced
    no_class = np.less_equal(share, 0.0, out=scratch.no_class[:2 * half])
    no_class[n_h:half] = False
    no_class[half + n_h:] = False
    h = np.add(share, no_class, out=scratch.h[:2 * half])
    np.log2(h, out=h)
    h *= share
    h = np.add(h[:half], h[half:], out=h[:half])
    np.negative(h, out=h)
    # h: entropies of the node and of each left and right side, then
    # each cut's split information; share and no_class are free again

    gain = np.multiply(lw, h[1:k + 1], out=share[:k])
    rw *= h[k + 1:n_h]
    gain += rw
    gain /= total_w
    np.subtract(h[0], gain, out=gain)
    # entropies are finite, so the gain is never NaN
    low = np.less_equal(gain, _GAIN_EPS, out=no_class[:k])
    gain /= h[n_h:]
    gain[low] = -math.inf
    best = int(gain.argmax())
    if gain[best] == -math.inf:
        return None
    return divmod(int(cuts[best]), m)


def _grow(x: np.ndarray, y: np.ndarray, w: np.ndarray, min_leaf: float,
          order: np.ndarray | None = None) -> tuple[list, ...]:
    """Node lists in pre-order: feature, right, w_def, w_clean, and lo
    and hi, the rows either side of a split's cut.

    The rows are sorted by every attribute once, unless order (from
    training_order) already holds that sort. A node holds its rows
    in that order, one row of ids per attribute, plus a last row with
    the ids ascending; its children get the same rows by a stable
    partition, so each node sees the order its own stable sort would
    give. A split's left child gets the rows up to its cut.
    """
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    ids = np.empty((d + 1, n), dtype=np.intp)
    ids[:d] = np.argsort(xt, axis=1, kind="stable") if order is None else order
    ids[d] = np.arange(n)
    xt = xt.ravel()
    offsets = np.arange(0, d * n, n)[:, np.newaxis]
    weights = np.stack((w, w * y))
    goes_left = np.empty(n, dtype=bool)
    scratch = _Scratch(d, n)
    feature: list[int] = []
    right: list[int] = []
    w_def: list[float] = []
    w_cln: list[float] = []
    lo: list[int] = []
    hi: list[int] = []
    # (sorted ids, node whose right child this is, or -1); the left
    # child is pushed last so that it is grown next, right after its parent
    stack = [(ids, -1)]
    while stack:
        ids, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        rows = ids[d]
        ws, ys = w[rows], y[rows]
        wd = float(_sum(ws[ys]))
        wc = float(_sum(ws[~ys]))
        w_def.append(wd)
        w_cln.append(wc)
        found = None
        # positive weights: a class is present iff its weight is positive
        if wd > 0.0 and wc > 0.0 and wd + wc >= 2.0 * min_leaf:
            found = _split(ids[:d], xt, offsets, weights, float(_sum(ws)), wd,
                           min_leaf, scratch)
        right.append(-1)
        if found is None:
            feature.append(-1)
            lo.append(-1)
            hi.append(-1)
            continue
        attr, cut = found
        feature.append(attr)
        lo.append(int(ids[attr, cut]))
        hi.append(int(ids[attr, cut + 1]))
        # a stable partition of every row list; taking by position is
        # much faster than boolean indexing on large nodes
        goes_left[rows] = False
        goes_left[ids[attr, :cut + 1]] = True
        mask = goes_left.take(ids).ravel()
        flat = ids.ravel()
        to_left = flat.take(mask.nonzero()[0]).reshape(d + 1, -1)
        to_right = flat.take((~mask).nonzero()[0]).reshape(d + 1, -1)
        stack.append((to_right, node))
        stack.append((to_left, -1))
    return feature, right, w_def, w_cln, lo, hi


def _added_errors(n: float, e: float, z: float, cf: float) -> float:
    """Pessimistic extra errors for a node with n instances and e errors.

    Upper confidence bound of the binomial error rate at confidence cf,
    with the customary small-count interpolation at e < 1 and the linear
    regime when the normal approximation breaks down; n is positive.
    """
    if e < 1.0:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0.0:
            return base
        return base + e * (_added_errors(n, 1.0, z, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    f = (e + 0.5) / n
    r = (f + z * z / (2.0 * n)
         + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))) \
        / (1.0 + z * z / n)
    return r * n - e


def _prune(nodes: tuple[list, ...], cf: float) -> tuple[list, ...]:
    """Replace by a leaf every subtree whose pessimistic error is no lower.

    Nodes are visited in reverse pre-order, so both children of a split
    are decided before it. A subtree's error is the sum of its two
    children's, each a leaf's own estimate or its subtree's sum.
    """
    feature, right, w_def, w_cln, lo, hi = nodes
    z = NormalDist().inv_cdf(1.0 - cf)
    n = len(feature)
    errors = [0.0] * n
    last = list(range(n))  # last pre-order index of each node's subtree
    keep = [True] * n
    for i in reversed(range(n)):
        e = min(w_def[i], w_cln[i])
        as_leaf = e + _added_errors(w_def[i] + w_cln[i], e, z, cf)
        if feature[i] < 0:
            errors[i] = as_leaf
            continue
        last[i] = last[right[i]]
        as_subtree = errors[i + 1] + errors[right[i]]
        if as_leaf <= as_subtree:
            errors[i] = as_leaf
            keep[i + 1:last[i] + 1] = [False] * (last[i] - i)
            feature[i] = right[i] = lo[i] = hi[i] = -1
        else:
            errors[i] = as_subtree
    new_index = np.cumsum(keep) - 1
    right = [int(new_index[r]) if r >= 0 else -1 for r in right]
    kept = [i for i in range(n) if keep[i]]
    return tuple([column[i] for i in kept]
                 for column in (feature, right, w_def, w_cln, lo, hi))


def _training_arrays(treated: TreatedPair) -> tuple[np.ndarray, ...]:
    """The training features, labels and weights, checked for training."""
    x = np.asarray(treated.train_features, dtype=np.float64)
    y = np.asarray(treated.train_labels, dtype=bool)
    w = np.asarray(treated.train_weights, dtype=np.float64)
    if len(x) < 2:
        raise UnusableDataError("training needs at least 2 instances")
    if not np.all(np.isfinite(x)):
        raise UnusableDataError("training features must be finite")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise UnusableDataError("training weights must be finite and positive")
    return x, y, w


def training_order(treated: TreatedPair) -> tuple[np.ndarray, bytes]:
    """The stable sort of the training rows by every attribute, and its key.

    The key is a 32-byte BLAKE2b digest of the shape, each attribute's
    sort and tie mask (sorted neighbours equal), the labels and the
    weights: two inputs with the same key grow trees that differ at most
    in their thresholds. The key is never written out. Raises
    the UnusableDataError train_tree raises for input it cannot train on.
    """
    x, y, w = _training_arrays(treated)
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")
    ranked = np.take_along_axis(xt, order, axis=1)
    digest = blake2b(repr(x.shape).encode(), digest_size=32)
    for array in (order, ranked[:, 1:] == ranked[:, :-1], y, w):
        digest.update(array.tobytes())
    return order, digest.digest()


def rethreshold(tree: DecisionTree, treated: TreatedPair) -> DecisionTree:
    """The tree train_tree gives on treated, from a tree of the same order key.

    A fit on treated makes the same splits between the same rows, so
    only the thresholds are set anew, from treated's values.
    """
    x = np.asarray(treated.train_features, dtype=np.float64)
    return dataclasses.replace(
        tree, threshold=_thresholds(x, tree.feature, tree.lo, tree.hi))


def train_tree(treated: TreatedPair, params: TreeParams | None = None,
               order: np.ndarray | None = None) -> DecisionTree:
    """Grow and prune a tree on the treated training data.

    order, from training_order on the same input, saves the sort.
    """
    params = params or TreeParams()
    x, y, w = _training_arrays(treated)
    feature, right, w_def, w_cln, lo, hi = _prune(
        _grow(x, y, w, params.min_leaf_weight, order), params.pruning_confidence)
    feature, lo, hi = (np.array(v, dtype=np.intp) for v in (feature, lo, hi))
    return DecisionTree(
        feature=feature, threshold=_thresholds(x, feature, lo, hi),
        right=np.array(right, dtype=np.intp),
        w_defective=np.array(w_def, dtype=np.float64),
        w_clean=np.array(w_cln, dtype=np.float64),
        lo=lo, hi=hi, n_attributes=x.shape[1])


def _leaves(tree: DecisionTree, rows) -> np.ndarray:
    """The leaf node each row reaches; the matrix is validated once.

    From the root, each split compares the values of the rows that
    reach it once and passes the two index subsets to its children; a
    leaf writes its node id for its rows.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != tree.n_attributes:
        raise ValueError(
            f"expected rows of {tree.n_attributes} attribute values, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise UnusableDataError("cannot predict from non-finite feature values")
    columns = x.T
    feature, threshold, right = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.right))
    node = np.empty(len(x), dtype=np.intp)
    todo = [(0, np.arange(len(x)))]
    while todo:
        at, idx = todo.pop()
        attr = feature[at]
        if attr < 0:
            node[idx] = at
            continue
        goes_left = columns[attr].take(idx) <= threshold[at]
        for child, part in ((right[at], idx[~goes_left]),
                            (at + 1, idx[goes_left])):
            if part.size:
                todo.append((child, part))
    return node


def _probas(tree: DecisionTree) -> np.ndarray:
    """Laplace-smoothed defect probability of every node."""
    return (tree.w_defective + 1.0) / (tree.w_defective + tree.w_clean + 2.0)


def predict_proba_rows(tree: DecisionTree, rows) -> np.ndarray:
    """Laplace-smoothed defect probability of the leaf each row reaches."""
    return _probas(tree)[_leaves(tree, rows)]


def leaf_count(tree: DecisionTree) -> int:
    return int(np.count_nonzero(tree.feature < 0))


def _depths(tree: DecisionTree) -> list[int]:
    """Depth of every node; a parent precedes its children in pre-order."""
    depth = [0] * len(tree.feature)
    for i in np.flatnonzero(tree.feature >= 0).tolist():
        depth[i + 1] = depth[tree.right[i]] = depth[i] + 1
    return depth


def dump_tree(tree: DecisionTree) -> str:
    """Plain-text rendering, one node per line in pre-order, children indented."""
    lines = []
    for depth, attr, thr, w_def, w_cln in zip(
            _depths(tree), tree.feature.tolist(), tree.threshold.tolist(),
            tree.w_defective.tolist(), tree.w_clean.tolist()):
        pad = "  " * depth
        if attr < 0:
            lines.append(f"{pad}leaf defective={w_def!r} clean={w_cln!r}")
        else:
            lines.append(f"{pad}attr {attr} <= {thr!r}")
    return "\n".join(lines) + "\n"
