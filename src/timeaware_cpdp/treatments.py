"""Training-data treatments applied before model construction.

Every treatment consumes an assembled train/test pair and returns a new
one, which may share arrays with its input; neither is ever written, and
assemble_pair makes its arrays read-only. Treatments may rescale
features, weight or drop training instances, drop attributes, or replace
the training labels, but they never look at test labels. A treatment
states only what it changes: every one but ma12 keeps its input's
instance weights, indexed by the training rows it keeps. When a
treatment leaves nothing to train on it raises DegenerateTreatmentError
and the caller skips the pair.

A treatment sees the pair's whole test side: every test release of the
pair, pooled into one matrix. The test statistics that watanabe08,
camargocruz09, ma12 and amasaki15 read (means, medians, ranges and
nearest-test distances) therefore span all of them, and a release's
scores can change with the pair's other test releases. identity and
nam15 read no test values.

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
                  and instances with above-median violation counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTreatmentError, UnusableDataError
from .pairs import TrainTestPair

# weights are floored here so that instance weights stay strictly positive
MIN_INSTANCE_WEIGHT = 1e-6
# amasaki15 computes nearest-test distances for at most this many
# (train, test) cells at a time, in two buffers of at most 64 KB (a call
# with fewer cells allocates only what it needs). Blocks this size stay
# in cache and below glibc's initial 128 KB mmap threshold, so they come
# from the heap instead of being mapped and faulted in on every call.
DISTANCE_CHUNK_CELLS = 1 << 13

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

    Both feature matrices hold the same attributes, the ones the
    treatments kept. test_versions holds one ((project, version), row
    count) per test release, in row order: the test rows are the
    releases' rows one release after another.
    """

    train_features: np.ndarray
    train_labels: np.ndarray
    train_weights: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    test_versions: tuple[tuple[tuple[str, str], int], ...]

    def __post_init__(self) -> None:
        if self.train_features.ndim != 2 or self.test_features.ndim != 2:
            raise ValueError("feature matrices must be 2-dimensional")
        if self.train_features.shape[1] != self.test_features.shape[1]:
            raise ValueError("train and test attribute counts differ")
        if len(self.train_labels) != len(self.train_features):
            raise ValueError("train labels do not match train rows")
        if len(self.train_weights) != len(self.train_features):
            raise ValueError("train weights do not match train rows")
        if len(self.test_labels) != len(self.test_features):
            raise ValueError("test labels do not match test rows")
        counts = [count for _, count in self.test_versions]
        if min(counts, default=1) < 1 or sum(counts) != len(self.test_features):
            raise ValueError("test version counts must be positive and sum "
                             "to the test rows")
        if not np.all(np.isfinite(self.train_weights) & (self.train_weights > 0)):
            raise UnusableDataError("train weights must be finite and positive")

    @property
    def n_train(self) -> int:
        return len(self.train_features)

    @property
    def n_test(self) -> int:
        return len(self.test_features)


def assemble_pair(pair: TrainTestPair) -> TreatedPair:
    """Stack each side's ``Release.records`` fields with unit weights.

    The arrays are read-only: treatments pass them on without copies.
    """
    widths = {rel.records["features"].shape[1]
              for side in (pair.train, pair.test) for rel in side}
    if len(widths) != 1:
        raise ValueError(f"inconsistent attribute counts: {sorted(widths)}")

    def rows(releases):
        return (np.concatenate([rel.records["features"] for rel in releases]),
                np.concatenate([rel.records["defective"] for rel in releases]))

    train_x, train_y = rows(pair.train)
    test_x, test_y = rows(pair.test)
    weights = np.ones(len(train_x))
    for array in (train_x, train_y, weights, test_x, test_y):
        array.flags.writeable = False
    return TreatedPair(
        train_features=train_x, train_labels=train_y,
        train_weights=weights, test_features=test_x, test_labels=test_y,
        test_versions=tuple((rel.key, len(rel)) for rel in pair.test))


def identity_treatment(tp: TreatedPair) -> TreatedPair:
    """Pass-through treatment: its input, unchanged."""
    return tp


def watanabe08(tp: TreatedPair) -> TreatedPair:
    """Rescale test attributes so their means match the training means.

    Each test value of attribute i is multiplied by
    mean(train attribute i) / mean(test attribute i). Attributes whose
    test mean is exactly zero keep their values (factor 1). Training
    features are untouched. Raises UnusableDataError when a mean or a
    rescaled value overflows float64.
    """
    # an overflowed factor times a zero test value is NaN, not inf
    with np.errstate(over="ignore", invalid="ignore"):
        train_mean = _finite("watanabe08", "training mean",
                             tp.train_features.mean(axis=0))
        test_mean = _finite("watanabe08", "test mean",
                            tp.test_features.mean(axis=0))
        factors = np.where(test_mean == 0.0, 1.0,
                           train_mean / np.where(test_mean == 0.0, 1.0, test_mean))
        test = _finite("watanabe08", "rescaled test value",
                       tp.test_features * factors)
    return dataclasses.replace(tp, test_features=test)


def _finite(name: str, what: str, values: np.ndarray) -> np.ndarray:
    """values, or an UnusableDataError naming the first overflowed attribute."""
    if not np.all(np.isfinite(values)):
        col = np.nonzero(~np.isfinite(values))[-1][0]
        raise UnusableDataError(
            f"{name} cannot use attribute {col}: its {what} overflows float64")
    return values


def _median(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """np.median(values, axis), bit for bit, without importing numpy.ma.

    As np.median does, it partitions at the middle and at the end, where
    any NaN goes, and a NaN gives NaN. values must not be empty along axis.
    """
    if axis is None:
        values, axis = values.reshape(-1), 0
    size = values.shape[axis]
    part = np.partition(values, [(size - 1) // 2, size // 2, -1], axis=axis)
    last = part.take(-1, axis=axis)
    # [()] makes the 0-d result of 1-D values a scalar, as np.median's is
    return np.where(np.isnan(last), last, _middle(part, axis))[()]


def _middle(ordered: np.ndarray, axis: int) -> np.ndarray:
    """np.median's middle of values sorted or partitioned along axis.

    The middle value, or (a + b) / 2 of the middle two, summed from 0.0 as
    np.mean sums: integers become float64, and -0.0 becomes 0.0.
    """
    size = ordered.shape[axis]
    low = ordered.take((size - 1) // 2, axis=axis) + 0.0
    return low if size % 2 else (low + ordered.take(size // 2, axis=axis)) / 2


def _log1p(name: str, tp: TreatedPair) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + x) of the train and test features; name needs them non-negative."""
    for side, x in (("train", tp.train_features), ("test", tp.test_features)):
        if np.any(x < 0):
            row, col = np.argwhere(x < 0)[0]
            raise UnusableDataError(
                f"{name} needs non-negative features; "
                f"{side} row {row}, attribute {col} is {x[row, col]}")
    return np.log1p(tp.train_features), np.log1p(tp.test_features)


def camargocruz09(tp: TreatedPair) -> TreatedPair:
    """Shift log-transformed training values toward the test median.

    Training values become
    log(1 + x) + median(log(1 + train attr)) - median(log(1 + test attr))
    per attribute; test values become plain log(1 + x). Requires
    non-negative features on both sides.
    """
    log_train, log_test = _log1p("camargocruz09", tp)
    shift = _median(log_train, axis=0) - _median(log_test, axis=0)
    return dataclasses.replace(tp, train_features=log_train + shift,
                               test_features=log_test)


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


def _select_attributes(log_train: np.ndarray, log_test: np.ndarray,
                       attr_mad_mult: float) -> np.ndarray:
    """amasaki15's kept columns, from one sort of every attribute's pool."""
    n, size = len(log_train), len(log_train) + len(log_test)
    pool = np.concatenate([log_train.T, log_test.T], axis=1)
    order = pool.argsort(axis=1)
    ranked = np.take_along_axis(pool, order, axis=1)
    median = _middle(ranked, axis=1)[:, None]
    deviation = np.abs(np.subtract(pool, median, out=pool), out=pool)
    mad = _median(deviation, axis=1)[:, None]
    gaps = np.full((len(pool), size + 1), np.inf)
    np.subtract(ranked[:, 1:], ranked[:, :-1], out=gaps[:, 1:-1])
    nearest = np.minimum(gaps[:, :-1], gaps[:, 1:], out=ranked)
    close = (nearest <= attr_mad_mult * mad) | (order >= n)
    return np.flatnonzero(close.all(axis=1))


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
    deviation (a NaN limit keeps none). One argsort orders every
    attribute's train and test values at once; a value's nearest other
    value is the smaller gap to its two sorted neighbours, inf past
    either end. Equal values are neighbours, so a value that occurs
    twice has distance 0 whichever copy sorts first. Relevancy
    filtering then keeps a training instance when its Euclidean nearest
    neighbor among test instances (over the kept attributes) is within
    relevancy_mult times the median such nearest-neighbor distance. The
    distances are exact: sums of squared direct differences, not an
    expansion through dot products. Requires non-negative features;
    raises DegenerateTreatmentError when every attribute or every
    training instance would be dropped.
    """
    log_train, log_test = _log1p("amasaki15", tp)
    kept_cols = _select_attributes(log_train, log_test, attr_mad_mult)
    if kept_cols.size == 0:
        raise DegenerateTreatmentError("amasaki15 dropped every attribute")

    sel_train = log_train[:, kept_cols]
    sel_test = log_test[:, kept_cols]
    nn = _min_test_distances(sel_train, sel_test)
    keep_rows = nn <= relevancy_mult * _median(nn)
    if not np.any(keep_rows):
        raise DegenerateTreatmentError("amasaki15 dropped every training instance")

    return dataclasses.replace(
        tp,
        train_features=sel_train[keep_rows],
        train_labels=tp.train_labels[keep_rows],
        train_weights=tp.train_weights[keep_rows],
        test_features=sel_test)


def nam15(tp: TreatedPair) -> TreatedPair:
    """Relabel the training data unsupervised, then prune violations.

    A training instance's K counts its attributes whose value is
    strictly above the attribute's training median; instances with K
    above the median K are labeled defective, the rest clean. A metric
    violation is an attribute value contradicting that label (defective
    with value at or below the median, clean with value above it).
    Attributes and then instances whose violation score exceeds the
    stage's median violation score are removed, so at least one of each
    stays. The generated labels replace the training labels.

    When relabeling gives one class (as when every K is equal) the
    input comes back unchanged, original labels and all. Needs at least
    two training instances; raises UnusableDataError when a median
    overflows float64.
    """
    if tp.n_train < 2:
        raise UnusableDataError("nam15 needs at least 2 training instances")

    x = tp.train_features
    with np.errstate(over="ignore"):
        medians = _finite("nam15", "training median", _median(x, axis=0))
    above = x > medians
    k = above.sum(axis=1)

    # the smallest K is never above the median, so one class means none is
    generated = k > _median(k)
    if not np.any(generated):
        return tp

    violations = np.where(generated[:, None], ~above, above)
    # the smallest score is never above the median: neither cut empties
    attr_scores = violations.sum(axis=0)
    kept_cols = np.flatnonzero(attr_scores <= _median(attr_scores))
    inst_scores = violations[:, kept_cols].sum(axis=1)
    keep_rows = inst_scores <= _median(inst_scores)

    return dataclasses.replace(
        tp,
        train_features=x[np.ix_(keep_rows, kept_cols)],
        train_labels=generated[keep_rows],
        train_weights=tp.train_weights[keep_rows],
        test_features=tp.test_features[:, kept_cols])
