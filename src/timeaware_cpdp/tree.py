"""C4.5-style binary decision tree over numeric attributes.

A tree is a set of flat node arrays in pre-order, in the layout of
scikit-learn's ``sklearn.tree._tree.Tree``: node 0 is the root and the
left child of a split directly follows it. ``dump_tree`` prints the
nodes in that order, so its text (the ``--dump-trees`` format) reads
the arrays top to bottom.

Training is fully deterministic: candidate thresholds are the midpoints
between adjacent distinct sorted values of an attribute, splits are
chosen by gain ratio, and ties are broken by the lowest attribute index
and then the lowest threshold. All counts and entropies use instance
weights, so a duplicated instance and a doubled weight produce the same
tree. Pruning is the classic pessimistic error estimate with a
confidence parameter, applied bottom-up with subtree replacement only
(no subtree raising). Prediction descends all rows of a matrix level by
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .treatments import TreatedPair

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class TreeParams:
    """Training parameters.

    pruning_confidence must lie in [0.10, 0.30]; smaller values prune
    more aggressively. min_leaf_weight is the smallest total instance
    weight a split may leave on either side; nodes lighter than twice
    this weight are not split at all.
    """

    pruning_confidence: float = 0.25
    min_leaf_weight: float = 2.0
    prune: bool = True

    def __post_init__(self) -> None:
        if not 0.10 <= self.pruning_confidence <= 0.30:
            raise ValueError(
                f"pruning_confidence {self.pruning_confidence} outside [0.10, 0.30]")
        if self.min_leaf_weight <= 0:
            raise ValueError("min_leaf_weight must be positive")


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Parallel node arrays in pre-order; node 0 is the root.

    feature is the attribute a split tests, -1 at a leaf. A row goes to
    the left child when its value is <= threshold (NaN at a leaf), else
    to the right one; left and right are node indices, -1 at a leaf.
    w_defective and w_clean are the training weights reaching the node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    w_defective: np.ndarray
    w_clean: np.ndarray
    n_attributes: int
    params: TreeParams


def _binary_entropy(w_pos: np.ndarray, w_total: np.ndarray) -> np.ndarray:
    """Entropy (bits) of two-class weight splits with positive total weights."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.clip(w_pos / w_total, 0.0, 1.0)
        q = 1.0 - p
        hp = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        hq = np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0)
    return -(hp + hq)


def _best_split(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                min_leaf: float) -> tuple[int, float] | None:
    """Highest gain-ratio admissible split over all attributes, or None.

    Admissible: both sides carry at least min_leaf weight and the
    information gain is positive. Row r of the cut arrays is the cut
    after the r-th smallest value of each attribute (one column per
    attribute); ties keep the first attribute, then the first threshold.
    """
    total_w = w.sum()
    total_d = w[y].sum()

    order = np.argsort(x, axis=0, kind="stable")
    vs = np.take_along_axis(x, order, axis=0)
    lw = np.cumsum(w[order], axis=0)[:-1]
    ld = np.cumsum((w * y)[order], axis=0)[:-1]
    rw = np.maximum(total_w - lw, 0.0)
    ok = (np.diff(vs, axis=0) > 0) & (lw >= min_leaf) & (rw >= min_leaf)
    if not ok.any():
        return None

    lw, ld, rw = lw[ok], ld[ok], rw[ok]
    rd = np.clip(total_d - ld, 0.0, rw)
    ld = np.clip(ld, 0.0, lw)
    # one entropy pass over the node itself, then every left and right side
    h = _binary_entropy(np.concatenate(([total_d], ld, rd)),
                        np.concatenate(([total_w], lw, rw)))
    h_left, h_right = h[1:len(lw) + 1], h[len(lw) + 1:]
    children = (lw * h_left + rw * h_right) / total_w
    gain = h[0] - children
    pl = lw / total_w
    split_info = -(pl * np.log2(pl) + (1.0 - pl) * np.log2(1.0 - pl))
    ratio = np.full(ok.shape, -math.inf)
    ratio[ok] = np.where(gain > _GAIN_EPS, gain / split_info, -math.inf)

    attr = int(np.argmax(ratio.max(axis=0)))
    cut = int(np.argmax(ratio[:, attr]))
    if ratio[cut, attr] == -math.inf:
        return None
    return attr, float((vs[cut, attr] + vs[cut + 1, attr]) / 2.0)


def _grow(x: np.ndarray, y: np.ndarray, w: np.ndarray,
          min_leaf: float) -> tuple[list, ...]:
    """Node lists (feature, threshold, left, right, w_def, w_clean) in pre-order."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    w_def: list[float] = []
    w_cln: list[float] = []
    # (row indices, node whose right child this is, or -1); the left
    # child is pushed last so that it is grown next, right after its parent
    stack = [(np.arange(len(y)), -1)]
    while stack:
        rows, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        xs, ys, ws = x[rows], y[rows], w[rows]
        wd = float(ws[ys].sum())
        wc = float(ws[~ys].sum())
        w_def.append(wd)
        w_cln.append(wc)
        found = None
        if ys.any() and not ys.all() and wd + wc >= 2.0 * min_leaf:
            found = _best_split(xs, ys, ws, min_leaf)
        if found is None:
            feature.append(-1)
            threshold.append(math.nan)
            left.append(-1)
            right.append(-1)
            continue
        attr, thr = found
        feature.append(attr)
        threshold.append(thr)
        left.append(node + 1)
        right.append(-1)
        goes_left = xs[:, attr] <= thr
        stack.append((rows[~goes_left], node))
        stack.append((rows[goes_left], -1))
    return feature, threshold, left, right, w_def, w_cln


def _added_errors(n: float, e: float, z: float, cf: float) -> float:
    """Pessimistic extra errors for a node with n instances and e errors.

    Upper confidence bound of the binomial error rate at confidence cf,
    with the customary small-count interpolation at e < 1 and the linear
    regime when the normal approximation breaks down.
    """
    if n <= 0:
        return 0.0
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
    feature, threshold, left, right, w_def, w_cln = nodes
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
        as_subtree = errors[left[i]] + errors[right[i]]
        if as_leaf <= as_subtree:
            errors[i] = as_leaf
            keep[i + 1:last[i] + 1] = [False] * (last[i] - i)
            feature[i], threshold[i], left[i], right[i] = -1, math.nan, -1, -1
        else:
            errors[i] = as_subtree
    new_index = np.cumsum(keep) - 1
    kept = [i for i in range(n) if keep[i]]
    return ([feature[i] for i in kept], [threshold[i] for i in kept],
            [int(new_index[left[i]]) if left[i] >= 0 else -1 for i in kept],
            [int(new_index[right[i]]) if right[i] >= 0 else -1 for i in kept],
            [w_def[i] for i in kept], [w_cln[i] for i in kept])


def train_tree(treated: TreatedPair, params: TreeParams | None = None) -> DecisionTree:
    """Grow and (by default) prune a tree on the treated training data."""
    params = params or TreeParams()
    x = np.asarray(treated.train_features, dtype=np.float64)
    y = np.asarray(treated.train_labels, dtype=bool)
    w = np.asarray(treated.train_weights, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("training needs at least 2 instances")
    if not np.all(np.isfinite(x)):
        raise ValueError("training features must be finite")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("training weights must be finite and positive")

    nodes = _grow(x, y, w, params.min_leaf_weight)
    if params.prune:
        nodes = _prune(nodes, params.pruning_confidence)
    feature, threshold, left, right, w_def, w_cln = nodes
    return DecisionTree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        w_defective=np.array(w_def, dtype=np.float64),
        w_clean=np.array(w_cln, dtype=np.float64),
        n_attributes=x.shape[1], params=params)


def predict_proba_rows(tree: DecisionTree, rows) -> np.ndarray:
    """Laplace-smoothed defect probability of the leaf each row reaches.

    All rows descend together, one tree level per step; the matrix is
    validated once.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != tree.n_attributes:
        raise ValueError(
            f"expected rows of {tree.n_attributes} attribute values, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot predict from non-finite feature values")
    node = np.zeros(len(x), dtype=np.intp)
    live = np.arange(len(x))
    while live.size:
        at = node[live]
        attr = tree.feature[at]
        inner = attr >= 0
        live, at, attr = live[inner], at[inner], attr[inner]
        goes_left = x[live, attr] <= tree.threshold[at]
        node[live] = np.where(goes_left, tree.left[at], tree.right[at])
    w_def = tree.w_defective[node]
    return (w_def + 1.0) / (w_def + tree.w_clean[node] + 2.0)


def predict_proba(tree: DecisionTree, instance) -> float:
    """Laplace-smoothed defect probability of the leaf the instance reaches."""
    row = np.asarray(instance, dtype=np.float64)
    if row.shape != (tree.n_attributes,):
        raise ValueError(
            f"expected {tree.n_attributes} attribute values, got shape {row.shape}")
    return float(predict_proba_rows(tree, row[np.newaxis])[0])


def predict(tree: DecisionTree, instance, threshold: float = 0.5) -> bool:
    """Defective iff the leaf probability reaches the threshold."""
    return predict_proba(tree, instance) >= threshold


def leaf_count(tree: DecisionTree) -> int:
    return int(np.count_nonzero(tree.feature < 0))


def _depths(tree: DecisionTree) -> list[int]:
    """Depth of every node; a parent precedes its children in pre-order."""
    depth = [0] * len(tree.feature)
    for i in np.flatnonzero(tree.feature >= 0).tolist():
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return depth


def tree_depth(tree: DecisionTree) -> int:
    return max(_depths(tree))


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
