"""Reference statistics: the rank-sum test and Cliff's delta as they were
before both read one pooled ranking.

``midranks`` ranks by a stable argsort, ``wilcoxon_rank_sum`` takes its
tie counts from a second ``np.unique`` of the pooled values, and
``cliffs_delta`` counts #(a > b) and #(a < b) with a bisect over the
sorted b. ``tests/test_stats_oracle.py`` checks that the package's
p-values and deltas are bit-identical to these.
"""

from __future__ import annotations

import bisect
import math
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from timeaware_cpdp.stability import RANK_SUM_EXACT_LIMIT, magnitude_label


def midranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their rank range;
    NaNs sort last, each with a rank of its own."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    # sorted positions of each tie group's first value and of its last
    start = np.flatnonzero(np.append(True, sv[1:] != sv[:-1]))
    end = np.append(start[1:], len(v)) - 1
    ranks = np.empty(len(v), dtype=np.float64)
    ranks[order] = np.repeat((start + end) / 2.0 + 1.0, end - start + 1)
    return ranks


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> float:
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    pooled = a + b
    if max(pooled) == min(pooled):
        return 1.0
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    ranks = midranks(pooled)
    w_obs = float(ranks[:n_a].sum())

    if n_a <= RANK_SUM_EXACT_LIMIT and n_b <= RANK_SUM_EXACT_LIMIT:
        rank_list = ranks.tolist()
        total = comb(n, n_a)
        count_le = count_ge = 0
        for idx in combinations(range(n), n_a):
            s = sum(rank_list[i] for i in idx)
            if s <= w_obs + 1e-9:
                count_le += 1
            if s >= w_obs - 1e-9:
                count_ge += 1
        return min(1.0, 2.0 * min(count_le, count_ge) / total)

    mu = n_a * (n + 1) / 2.0
    _, tie_counts = np.unique(np.asarray(pooled), return_counts=True)
    tie_term = float(((tie_counts ** 3) - tie_counts).sum())
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    diff = w_obs - mu
    if abs(diff) <= 0.5:
        z = 0.0
    else:
        z = (diff - math.copysign(0.5, diff)) / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> tuple[float, str]:
    if not len(a) or not len(b):
        raise ValueError("both samples must be non-empty")
    sb = sorted(float(v) for v in b)
    m = len(sb)
    greater = less = 0
    for v in a:
        v = float(v)
        greater += bisect.bisect_left(sb, v)
        less += m - bisect.bisect_right(sb, v)
    delta = (greater - less) / (len(a) * m)
    return delta, magnitude_label(delta)
