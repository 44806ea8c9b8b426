"""Reference implementations the fast tree and metrics are tested against.

This is the recursive C4.5 tree the package used before trees became
flat node arrays: a graph of ``Leaf``/``Split`` objects, a split search
that sorts one attribute at a time, recursive pruning and one-row
prediction, plus the loop forms of ``confusion`` and ``midranks``. The
arithmetic is kept exactly as it was, so the array code must reproduce
its trees, dumps, probabilities and ranks bit for bit.

``grow_nodes`` is the array grower that came after it and before each
fit sorted its rows once: it sorts every node's rows again and searches
all attributes of the node with clip/where NumPy expressions. It returns
the unpruned node lists, so the presorted grower must give the same
lists, bit for bit.

``training_order`` is the order key as it was before trees were keyed
by BLAKE2b: a SHA-256 digest, taken through ``hashlib``, of the same
bytes. The package's keys must be equal exactly when these are.

``leaves_by_level`` is the descent of a flat tree as it was before each
split divided its own rows between its children: every row still in
an inner node moves one level down per step. The package's descent
must reach the same leaves.
"""

from __future__ import annotations

import hashlib
import math
from statistics import NormalDist

import numpy as np

_GAIN_EPS = 1e-12


class Leaf:
    __slots__ = ("w_defective", "w_clean")

    def __init__(self, w_defective: float, w_clean: float):
        self.w_defective = w_defective
        self.w_clean = w_clean


class Split:
    __slots__ = ("attribute", "threshold", "left", "right", "w_defective", "w_clean")

    def __init__(self, attribute: int, threshold: float, left, right,
                 w_defective: float, w_clean: float):
        self.attribute = attribute
        self.threshold = threshold
        self.left = left
        self.right = right
        self.w_defective = w_defective
        self.w_clean = w_clean


def _binary_entropy(w_pos: np.ndarray, w_total: np.ndarray) -> np.ndarray:
    w_total = np.asarray(w_total, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.clip(np.where(w_total > 0, w_pos / np.where(w_total > 0, w_total, 1.0), 0.0), 0.0, 1.0)
        q = 1.0 - p
        hp = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        hq = np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0)
    return -(hp + hq)


def _best_split(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                min_leaf: float) -> tuple[int, float] | None:
    total_w = w.sum()
    total_d = w[y].sum()
    h_parent = float(_binary_entropy(np.array(total_d), np.array(total_w)))
    wy = w * y

    best_ratio = -math.inf
    best: tuple[int, float] | None = None
    for attr in range(x.shape[1]):
        values = x[:, attr]
        order = np.argsort(values, kind="stable")
        vs = values[order]
        cw = np.cumsum(w[order])
        cd = np.cumsum(wy[order])

        cuts = np.flatnonzero(np.diff(vs) > 0)
        if cuts.size == 0:
            continue
        lw = cw[cuts]
        ld = cd[cuts]
        rw = np.maximum(total_w - lw, 0.0)
        rd = np.clip(total_d - ld, 0.0, rw)
        ld = np.clip(ld, 0.0, lw)

        ok = (lw >= min_leaf) & (rw >= min_leaf)
        if not ok.any():
            continue
        cuts, lw, ld, rw, rd = cuts[ok], lw[ok], ld[ok], rw[ok], rd[ok]

        children = (lw * _binary_entropy(ld, lw) + rw * _binary_entropy(rd, rw)) / total_w
        gain = h_parent - children
        pl = lw / total_w
        split_info = -(pl * np.log2(pl) + (1.0 - pl) * np.log2(1.0 - pl))
        ratio = np.where(gain > _GAIN_EPS, gain / split_info, -math.inf)

        i = int(np.argmax(ratio))
        if ratio[i] > best_ratio:
            best_ratio = float(ratio[i])
            cut = cuts[i]
            best = (attr, float((vs[cut] + vs[cut + 1]) / 2.0))
    return best


def _grow(x, y, w, min_leaf_weight: float) -> Leaf | Split:
    w_def = float(w[y].sum())
    w_cln = float(w[~y].sum())
    if (not y.any() or y.all()
            or w_def + w_cln < 2.0 * min_leaf_weight):
        return Leaf(w_def, w_cln)
    found = _best_split(x, y, w, min_leaf_weight)
    if found is None:
        return Leaf(w_def, w_cln)
    attr, thr = found
    mask = x[:, attr] <= thr
    left = _grow(x[mask], y[mask], w[mask], min_leaf_weight)
    right = _grow(x[~mask], y[~mask], w[~mask], min_leaf_weight)
    return Split(attr, thr, left, right, w_def, w_cln)


def _node_binary_entropy(w_pos: np.ndarray, w_total: np.ndarray) -> np.ndarray:
    """Entropy (bits) of two-class weight splits with positive total weights."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.clip(w_pos / w_total, 0.0, 1.0)
        q = 1.0 - p
        hp = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        hq = np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0)
    return -(hp + hq)


def _node_best_split(x: np.ndarray, y: np.ndarray, w: np.ndarray,
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
    h = _node_binary_entropy(np.concatenate(([total_d], ld, rd)),
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


def grow_nodes(x: np.ndarray, y: np.ndarray, w: np.ndarray,
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
            found = _node_best_split(xs, ys, ws, min_leaf)
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


def _pessimistic_errors(node, z: float, cf: float) -> float:
    if isinstance(node, Leaf):
        e = min(node.w_defective, node.w_clean)
        n = node.w_defective + node.w_clean
        return e + _added_errors(n, e, z, cf)
    return (_pessimistic_errors(node.left, z, cf)
            + _pessimistic_errors(node.right, z, cf))


def _prune(node, z: float, cf: float):
    if isinstance(node, Leaf):
        return node
    node = Split(node.attribute, node.threshold,
                 _prune(node.left, z, cf), _prune(node.right, z, cf),
                 node.w_defective, node.w_clean)
    as_subtree = _pessimistic_errors(node, z, cf)
    e = min(node.w_defective, node.w_clean)
    n = node.w_defective + node.w_clean
    as_leaf = e + _added_errors(n, e, z, cf)
    if as_leaf <= as_subtree:
        return Leaf(node.w_defective, node.w_clean)
    return node


def train(x, y, w, pruning_confidence: float = 0.25,
          min_leaf_weight: float = 2.0, prune: bool = True) -> Leaf | Split:
    """Root of the grown (and by default pruned) tree."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    w = np.asarray(w, dtype=np.float64)
    root = _grow(x, y, w, min_leaf_weight)
    if prune:
        z = NormalDist().inv_cdf(1.0 - pruning_confidence)
        root = _prune(root, z, pruning_confidence)
    return root


def training_order(x, y, w) -> tuple[np.ndarray, bytes]:
    """The stable sort of the rows by every attribute, and its SHA-256 key."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    w = np.asarray(w, dtype=np.float64)
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")
    ranked = np.take_along_axis(xt, order, axis=1)
    digest = hashlib.sha256(repr(x.shape).encode())
    for array in (order, ranked[:, 1:] == ranked[:, :-1], y, w):
        digest.update(array.tobytes())
    return order, digest.digest()


def predict_proba(root, row) -> float:
    node = root
    while isinstance(node, Split):
        node = node.left if row[node.attribute] <= node.threshold else node.right
    return (node.w_defective + 1.0) / (node.w_defective + node.w_clean + 2.0)


def leaves_by_level(tree, x) -> np.ndarray:
    """The leaf node of a flat tree that each row of x reaches.

    All rows descend together, one tree level per step. x is a finite
    float64 matrix of the tree's width.
    """
    node = np.zeros(len(x), dtype=np.intp)
    live = np.arange(len(x))
    while live.size:
        at = node[live]
        attr = tree.feature[at]
        inner = attr >= 0
        live, at, attr = live[inner], at[inner], attr[inner]
        goes_left = x[live, attr] <= tree.threshold[at]
        node[live] = np.where(goes_left, at + 1, tree.right[at])
    return node


def dump(root) -> str:
    lines: list[str] = []

    def walk(node, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, Leaf):
            lines.append(
                f"{pad}leaf defective={node.w_defective!r} clean={node.w_clean!r}")
        else:
            lines.append(f"{pad}attr {node.attribute} <= {node.threshold!r}")
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(root, 0)
    return "\n".join(lines) + "\n"


def confusion(predicted, actual) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) counted one instance at a time."""
    tp = fp = tn = fn = 0
    for p, a in zip(predicted, actual):
        if p and a:
            tp += 1
        elif p and not a:
            fp += 1
        elif not p and not a:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def midranks(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(len(v), dtype=np.float64)
    sv = v[order]
    i = 0
    n = len(v)
    while i < n:
        j = i
        while j + 1 < n and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks
