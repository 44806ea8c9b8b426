"""Reference forms of amasaki15's two searches, as amasaki15 ran them before.

``_min_test_distances`` takes squared distances from the
|a|² + |b|² - 2a·b expansion with one matrix product, the form that
cancels when rows are far from the origin and close to each other.
``_select_attributes`` sorts one attribute at a time and finds each
training value in it with two binary searches, counting a value that
occurs twice as distance 0 explicitly. ``tests/test_treatments_oracle.py``
checks the direct-difference distances and the one-pass selection in
``treatments`` against them.
"""

from __future__ import annotations

import numpy as np


def _min_test_distances(train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Euclidean distance from each training row to its nearest test row."""
    sq = (np.sum(train ** 2, axis=1)[:, None]
          + np.sum(test ** 2, axis=1)[None, :]
          - 2.0 * train @ test.T)
    return np.sqrt(np.maximum(sq.min(axis=1), 0.0))


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


def _select_attributes(log_train: np.ndarray, log_test: np.ndarray,
                       attr_mad_mult: float) -> np.ndarray:
    """Columns whose training values all have another value within the limit."""
    kept_cols = []
    for col in range(log_train.shape[1]):
        pool = np.concatenate([log_train[:, col], log_test[:, col]])
        mad = np.median(np.abs(pool - np.median(pool)))
        nearest = _nearest_other_distances(log_train[:, col], pool)
        if np.all(nearest <= attr_mad_mult * mad):
            kept_cols.append(col)
    return np.array(kept_cols, dtype=np.intp)
