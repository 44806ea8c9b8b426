"""Training-data treatments applied before model construction.

Every treatment consumes an assembled train/test pair and returns a new
one, which may share arrays with its input; neither is ever written, and
assemble_pair makes its arrays read-only. Treatments may rescale
features, weight or drop training instances, drop attributes, or replace
the training labels, but they never look at test labels. When a
treatment leaves nothing to train on it raises DegenerateTreatmentError
and the caller skips the pair.

The five named treatments follow the published descriptions of the
respective defect prediction approaches:

  watanabe08      rescale each test attribute by the ratio of training
                  mean to test mean,
  camargocruz09   log-transform both sides and shift the training values
                  by the difference of the median log terms,
  ma12            weight training instances by how many of their
                  attribute values fall inside the test data's ranges,
  amasaki15       log-transform, then drop attributes with isolated
                  values and training instances far from the test data,
  nam15           relabel the training data unsupervised from
                  above-median attribute counts, then drop attributes
                  and instances with many metric violations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import DegenerateTreatmentError
from .pairs import TrainTestPair

# weights are floored here so that instance weights stay strictly positive
MIN_INSTANCE_WEIGHT = 1e-6
# amasaki15 computes nearest-test distances for at most this many
# (train, test) cells at a time, in at most two 2 MB buffers; a call
# with fewer cells allocates only what it needs. The size also keeps the
# tree fast on the demo, whose largest calls fill both buffers. glibc
# raises its mmap threshold to the largest block freed, and the tree's
# split search allocates per node a few arrays above the initial 128 KB
# threshold on nodes of 1000+ rows: the running weight sums along every
# attribute and the 2k+1 class shares (and their complements) for k
# admissible cuts. Below the threshold they come from the heap; above
# it each is mapped, faulted in and unmapped on every such node. With
# 512 KB buffers (1 << 16 cells) a demo run took ~19k page faults, ~17k
# of them in the tree, against ~4k (~350 in the tree) at 1 << 18. That
# was measured on the demo only.
DISTANCE_CHUNK_CELLS = 1 << 18

TREATMENT_NAMES = (
    "identity",
    "watanabe08",
    "camargocruz09",
    "ma12",
    "amasaki15",
    "nam15",
)


@dataclass(frozen=True)
class TreatedPair:
    """Matrix form of a train/test pair, after zero or more treatments.

    Feature matrices hold only the selected attributes;
    selected_attributes maps their columns back to 0-based positions in
    the original attribute list. test_version_keys tags every test row
    with its (project, version). label_fallback records that nam15 kept
    the original labels because relabeling degenerated.
    """

    train_features: np.ndarray
    train_labels: np.ndarray
    train_weights: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    test_version_keys: tuple[tuple[str, str], ...]
    selected_attributes: tuple[int, ...]
    label_fallback: bool = False

    def __post_init__(self) -> None:
        if self.train_features.ndim != 2 or self.test_features.ndim != 2:
            raise ValueError("feature matrices must be 2-dimensional")
        if self.train_features.shape[1] != self.test_features.shape[1]:
            raise ValueError("train and test attribute counts differ")
        if self.train_features.shape[1] != len(self.selected_attributes):
            raise ValueError("selected_attributes does not match matrix width")
        if len(self.train_labels) != len(self.train_features):
            raise ValueError("train labels do not match train rows")
        if len(self.train_weights) != len(self.train_features):
            raise ValueError("train weights do not match train rows")
        if len(self.test_labels) != len(self.test_features):
            raise ValueError("test labels do not match test rows")
        if len(self.test_version_keys) != len(self.test_features):
            raise ValueError("test version keys do not match test rows")
        if not np.all(np.isfinite(self.train_weights) & (self.train_weights > 0)):
            raise ValueError("train weights must be finite and positive")

    @property
    def n_train(self) -> int:
        return len(self.train_features)

    @property
    def n_test(self) -> int:
        return len(self.test_features)


def assemble_pair(pair: TrainTestPair) -> TreatedPair:
    """Stack the releases' matrices (``Release.arrays``) with unit weights.

    The arrays are read-only: treatments pass them on without copies.
    """
    widths = {rel.arrays[0].shape[1] for side in (pair.train, pair.test)
              for rel in side}
    if len(widths) != 1:
        raise ValueError(f"inconsistent attribute counts: {sorted(widths)}")

    def rows(releases):
        return (np.concatenate([rel.arrays[0] for rel in releases]),
                np.concatenate([rel.arrays[1] for rel in releases]))

    train_x, train_y = rows(pair.train)
    test_x, test_y = rows(pair.test)
    weights = np.ones(len(train_x))
    for array in (train_x, train_y, weights, test_x, test_y):
        array.flags.writeable = False
    keys = tuple(chain.from_iterable(repeat(rel.key, len(rel))
                                     for rel in pair.test))
    return TreatedPair(
        train_features=train_x, train_labels=train_y,
        train_weights=weights, test_features=test_x, test_labels=test_y,
        test_version_keys=keys,
        selected_attributes=tuple(range(widths.pop())))


def identity_treatment(tp: TreatedPair) -> TreatedPair:
    """Pass-through treatment: unit weights, all attributes."""
    return dataclasses.replace(tp, train_weights=np.ones(tp.n_train))


def watanabe08(tp: TreatedPair) -> TreatedPair:
    """Rescale test attributes so their means match the training means.

    Each test value of attribute i is multiplied by
    mean(train attribute i) / mean(test attribute i). Attributes whose
    test mean is exactly zero keep their values (factor 1). Training
    features are untouched.
    """
    return dataclasses.replace(
        tp,
        test_features=tp.test_features * watanabe08_factors(tp),
        train_weights=np.ones(tp.n_train))


def watanabe08_factors(tp: TreatedPair) -> np.ndarray:
    """Per-attribute rescaling factors watanabe08 would apply."""
    train_mean = tp.train_features.mean(axis=0)
    test_mean = tp.test_features.mean(axis=0)
    return np.where(test_mean == 0.0, 1.0,
                    train_mean / np.where(test_mean == 0.0, 1.0, test_mean))


def _require_nonnegative(name: str, x: np.ndarray, side: str) -> None:
    if np.any(x < 0):
        row, col = np.argwhere(x < 0)[0]
        raise ValueError(
            f"{name} needs non-negative features; "
            f"{side} row {row}, attribute {col} is {x[row, col]}")


def camargocruz09(tp: TreatedPair) -> TreatedPair:
    """Shift log-transformed training values toward the test median.

    Training values become
    log(1 + x) + median(log(1 + train attr)) - median(log(1 + test attr))
    per attribute; test values become plain log(1 + x). Requires
    non-negative features on both sides.
    """
    _require_nonnegative("camargocruz09", tp.train_features, "train")
    _require_nonnegative("camargocruz09", tp.test_features, "test")
    log_train = np.log1p(tp.train_features)
    log_test = np.log1p(tp.test_features)
    shift = np.median(log_train, axis=0) - np.median(log_test, axis=0)
    return dataclasses.replace(
        tp,
        train_features=log_train + shift,
        test_features=log_test,
        train_weights=np.ones(tp.n_train))


def ma12(tp: TreatedPair) -> TreatedPair:
    """Weight training instances by similarity to the test data.

    simatts of a training instance counts its attributes whose value
    lies inside the test data's [min, max] for that attribute, bounds
    included. With p attributes the weight is
    simatts / (p - simatts + 1)^2, floored at a small positive constant.
    Features are unchanged.
    """
    p = tp.train_features.shape[1]
    lo = tp.test_features.min(axis=0)
    hi = tp.test_features.max(axis=0)
    inside = (tp.train_features >= lo) & (tp.train_features <= hi)
    simatts = inside.sum(axis=1).astype(np.float64)
    weights = simatts / (p - simatts + 1.0) ** 2
    weights = np.maximum(weights, MIN_INSTANCE_WEIGHT)
    return dataclasses.replace(tp, train_weights=weights)


def _nearest_other_distances(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Distance from each value to the nearest pool entry that is not itself.

    values must be a subset of pool (one pool entry per value is
    discounted, so duplicated values have distance 0).
    """
    sorted_pool = np.sort(pool)
    n = len(sorted_pool)
    left = np.searchsorted(sorted_pool, values, side="left")
    right = np.searchsorted(sorted_pool, values, side="right")
    duplicated = (right - left) >= 2

    prev_dist = np.where(left > 0,
                         values - sorted_pool[np.maximum(left - 1, 0)],
                         np.inf)
    next_dist = np.where(right < n,
                         sorted_pool[np.minimum(right, n - 1)] - values,
                         np.inf)
    return np.where(duplicated, 0.0, np.minimum(prev_dist, next_dist))


def _min_test_distances(train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Euclidean distance from each training row to its nearest test row.

    The squared differences are summed attribute by attribute, for a
    chunk of training rows against every test row at a time, so each of
    the two buffers holds at most DISTANCE_CHUNK_CELLS cells (or one
    training row). Direct differences do not cancel the way
    |a|² + |b|² - 2a·b does, and make no BLAS call.
    """
    n, m = len(train), len(test)
    rows = max(1, DISTANCE_CHUNK_CELLS // max(m, 1))
    total = np.empty((min(rows, n), m))
    term = np.empty_like(total)
    nearest = np.empty(n)
    for start in range(0, n, rows):
        chunk = train[start:start + rows]
        sq, diff = total[:len(chunk)], term[:len(chunk)]
        np.subtract.outer(chunk[:, 0], test[:, 0], out=sq)
        np.square(sq, out=sq)
        for k in range(1, train.shape[1]):
            np.subtract.outer(chunk[:, k], test[:, k], out=diff)
            np.square(diff, out=diff)
            sq += diff
        nearest[start:start + len(chunk)] = sq.min(axis=1)
    return np.sqrt(nearest)


def amasaki15(tp: TreatedPair, attr_mad_mult: float = 1.0,
              relevancy_mult: float = 2.0) -> TreatedPair:
    """Log-transform, then prune isolated attributes and far instances.

    Attribute selection keeps attribute i when every training value has
    some other value of that attribute, in the combined train and test
    data, within attr_mad_mult times the attribute's median absolute
    deviation. Relevancy filtering then keeps a training instance when
    its Euclidean nearest neighbor among test instances (over the kept
    attributes) is within relevancy_mult times the median such
    nearest-neighbor distance. The distances are exact: sums of squared
    direct differences, not an expansion through dot products. Requires
    non-negative features; raises DegenerateTreatmentError when every
    attribute or every training instance would be dropped.
    """
    _require_nonnegative("amasaki15", tp.train_features, "train")
    _require_nonnegative("amasaki15", tp.test_features, "test")
    log_train = np.log1p(tp.train_features)
    log_test = np.log1p(tp.test_features)

    kept_cols = []
    for col in range(log_train.shape[1]):
        pool = np.concatenate([log_train[:, col], log_test[:, col]])
        mad = np.median(np.abs(pool - np.median(pool)))
        nearest = _nearest_other_distances(log_train[:, col], pool)
        if np.all(nearest <= attr_mad_mult * mad):
            kept_cols.append(col)
    if not kept_cols:
        raise DegenerateTreatmentError("amasaki15 dropped every attribute")

    sel_train = log_train[:, kept_cols]
    sel_test = log_test[:, kept_cols]
    nn = _min_test_distances(sel_train, sel_test)
    keep_rows = nn <= relevancy_mult * np.median(nn)
    if not np.any(keep_rows):
        raise DegenerateTreatmentError("amasaki15 dropped every training instance")

    selected = tuple(tp.selected_attributes[c] for c in kept_cols)
    return dataclasses.replace(
        tp,
        train_features=sel_train[keep_rows],
        train_labels=tp.train_labels[keep_rows],
        train_weights=np.ones(int(keep_rows.sum())),
        test_features=sel_test,
        selected_attributes=selected)


def nam15(tp: TreatedPair, violation_threshold: float | None = None) -> TreatedPair:
    """Relabel the training data unsupervised, then prune violations.

    A training instance's K counts its attributes whose value is
    strictly above the attribute's training median; instances with K
    above the median K are labeled defective, the rest clean. A metric
    violation is an attribute value contradicting that label (defective
    with value at or below the median, clean with value above it).
    Attributes and then instances whose violation score exceeds the
    stage's threshold are removed; by default the threshold is the
    median violation score of the stage, otherwise violation_threshold
    is taken as a fraction of the possible violations. The generated
    labels replace the training labels.

    When relabeling degenerates (all K equal, or only one generated
    class) the original labels are kept and label_fallback is set. Needs
    at least two training instances.
    """
    if tp.n_train < 2:
        raise ValueError("nam15 needs at least 2 training instances")
    if violation_threshold is not None and not 0 <= violation_threshold <= 1:
        raise ValueError("violation_threshold must be within [0, 1]")

    x = tp.train_features
    medians = np.median(x, axis=0)
    above = x > medians
    k = above.sum(axis=1)

    if np.all(k == k[0]):
        return _nam15_fallback(tp)
    generated = k > np.median(k)
    if np.all(generated) or not np.any(generated):
        return _nam15_fallback(tp)

    violations = np.where(generated[:, None], ~above, above)

    attr_scores = violations.sum(axis=0).astype(float)
    if violation_threshold is None:
        attr_cut = np.median(attr_scores)
    else:
        attr_cut = violation_threshold * len(x)
    kept_cols = np.flatnonzero(attr_scores <= attr_cut)
    if kept_cols.size == 0:
        raise DegenerateTreatmentError("nam15 dropped every attribute")

    inst_scores = violations[:, kept_cols].sum(axis=1).astype(float)
    if violation_threshold is None:
        inst_cut = np.median(inst_scores)
    else:
        inst_cut = violation_threshold * kept_cols.size
    keep_rows = inst_scores <= inst_cut
    if not np.any(keep_rows):
        raise DegenerateTreatmentError("nam15 dropped every training instance")

    selected = tuple(tp.selected_attributes[c] for c in kept_cols)
    return dataclasses.replace(
        tp,
        train_features=x[np.ix_(keep_rows, kept_cols)],
        train_labels=generated[keep_rows],
        train_weights=np.ones(int(keep_rows.sum())),
        test_features=tp.test_features[:, kept_cols],
        selected_attributes=selected)


def _nam15_fallback(tp: TreatedPair) -> TreatedPair:
    return dataclasses.replace(tp, train_weights=np.ones(tp.n_train),
                               label_fallback=True)
