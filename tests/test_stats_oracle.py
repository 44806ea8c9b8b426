"""The pooled-ranking rank-sum test and Cliff's delta against stats_oracle.py.

p-values and deltas must be bit-identical (repr-equal) to the argsort
ranking, the second np.unique and the bisect count they replaced: on
heavily tied samples, on both branches of the rank-sum test (exact up to
RANK_SUM_EXACT_LIMIT values per sample, normal beyond), on singleton
samples and on samples of one value.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stats_oracle as oracle
import tree_oracle
from timeaware_cpdp.stability import (RANK_SUM_EXACT_LIMIT, _pooled_ranks,
                                      cliffs_delta, wilcoxon_rank_sum)

# few values, so most samples tie heavily; -0.0 ties with 0.0
TIED = st.sampled_from((-0.0, 0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0))
ANY = st.floats(-1e6, 1e6, allow_nan=False) | TIED
EXACT = st.lists(TIED, min_size=1, max_size=RANK_SUM_EXACT_LIMIT)
# the exact test enumerates comb(|a| + |b|, |a|) splits: keep one side short
SHORT = st.lists(TIED, min_size=1, max_size=4)
NORMAL = st.lists(TIED, min_size=RANK_SUM_EXACT_LIMIT + 1, max_size=60)


def assert_same(a, b):
    assert repr(wilcoxon_rank_sum(a, b)) == repr(oracle.wilcoxon_rank_sum(a, b))
    assert repr(cliffs_delta(a, b)) == repr(oracle.cliffs_delta(a, b))


@settings(max_examples=300, deadline=None)
@given(EXACT, SHORT)
@example([0.5], [0.25])
@example([0.5], [0.5])
@example([0.1, 0.5] * 5, [0.5, 0.25] * 5)
def test_exact_branch_matches_oracle(a, b):
    assert_same(a, b)
    assert_same(b, a)


@settings(max_examples=300, deadline=None)
@given(NORMAL | EXACT, NORMAL)
@example([1.0], [0.0] * 40)
@example([0.25] * 11, [0.25] * 30)
@example([0.5] * RANK_SUM_EXACT_LIMIT, [0.25] * (RANK_SUM_EXACT_LIMIT + 1))
def test_normal_branch_matches_oracle(a, b):
    assert_same(a, b)
    assert_same(b, a)


@settings(max_examples=200, deadline=None)
@given(st.lists(ANY, min_size=1, max_size=8), st.lists(ANY, min_size=1, max_size=30))
def test_untied_and_mixed_samples_match_oracle(a, b):
    assert_same(a, b)


def test_samples_of_one_value_give_p_one():
    for a, b in (([0.5], [0.5]), ([0.0] * 3, [-0.0] * 12), ([2.0] * 20, [2.0] * 11)):
        assert wilcoxon_rank_sum(a, b) == 1.0 == oracle.wilcoxon_rank_sum(a, b)
        assert cliffs_delta(a, b) == (0.0, "negligible")


@settings(max_examples=300, deadline=None)
@given(st.lists(TIED, min_size=1, max_size=20), st.lists(TIED, min_size=1, max_size=20))
def test_pooled_ranks_are_the_loop_midranks_and_tie_sizes(a, b):
    ranks, ties = _pooled_ranks(a, b)
    assert ranks.tobytes() == tree_oracle.midranks(a + b).tobytes()
    assert ranks.tobytes() == oracle.midranks(a + b).tobytes()
    _, counts = np.unique(np.asarray(a + b), return_counts=True)
    assert ties.tolist() == counts.tolist()


def test_empty_samples_raise():
    for a, b in (([], [1.0]), ([1.0], [])):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum(a, b)
        with pytest.raises(ValueError):
            cliffs_delta(a, b)
