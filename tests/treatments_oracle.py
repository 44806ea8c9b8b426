"""Reference nearest-test distances: the dot-product form amasaki15 used before.

Squared distances come from the |a|² + |b|² - 2a·b expansion with one
matrix product, the form that cancels when rows are far from the origin
and close to each other. ``tests/test_treatments_oracle.py`` checks the
direct-difference ``treatments._min_test_distances`` against it.
"""

from __future__ import annotations

import numpy as np


def _min_test_distances(train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Euclidean distance from each training row to its nearest test row."""
    sq = (np.sum(train ** 2, axis=1)[:, None]
          + np.sum(test ** 2, axis=1)[None, :]
          - 2.0 * train @ test.T)
    return np.sqrt(np.maximum(sq.min(axis=1), 0.0))
