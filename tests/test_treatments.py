"""Treatment semantics: fixtures with hand-computed expectations."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import timeaware_cpdp
from e2e import write_experiment
from timeaware_cpdp.errors import (DegenerateTreatmentError,
                                  UnusableDataError)
from timeaware_cpdp.treatments import (TreatedPair, _median, _middle,
                                       amasaki15, assemble_pair,
                                       camargocruz09, identity_treatment,
                                       ma12, nam15, watanabe08)


def build_pair(train_x, train_y, test_x, test_y) -> TreatedPair:
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    return TreatedPair(
        train_features=train_x,
        train_labels=np.asarray(train_y, dtype=bool),
        train_weights=np.ones(len(train_x)),
        test_features=test_x,
        test_labels=np.asarray(test_y, dtype=bool),
        test_versions=((("t", "1"), len(test_x)),))


def assembled_pair() -> TreatedPair:
    from datetime import date

    from timeaware_cpdp.pairs import ConfigurationKind, PairSpec, TrainTestPair
    from synth import make_release

    train = make_release("a", "1", date(2001, 1, 1),
                         [((1.0, 2.0), True), ((3.0, 4.0), False)])
    test1 = make_release("b", "1", date(2002, 1, 1), [((5.0, 6.0), True)])
    test2 = make_release("c", "1", date(2002, 2, 1), [((7.0, 8.0), False)])
    pair = TrainTestPair(
        spec=PairSpec(kind=ConfigurationKind.II, window_k=None, split_index=1,
                      gap_buckets=0),
        train=(train,), test=(test1, test2))
    return assemble_pair(pair)


def test_assemble_pair_flattens_releases():
    tp = assembled_pair()
    assert tp.train_features.shape == (2, 2)
    assert tp.test_versions == ((("b", "1"), 1), (("c", "1"), 1))
    assert list(tp.train_labels) == [True, False]
    assert list(tp.train_weights) == [1.0, 1.0]
    assert tp.train_features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert tp.test_features.tolist() == [[5.0, 6.0], [7.0, 8.0]]


# a release's record array holds rows of one width, so widths can only
# differ between releases: across the two sides, or within one side
@pytest.mark.parametrize("test_rows", [  # the rows of each test release
    [[((5.0, 6.0, 7.0), True)]],
    [[((5.0, 6.0), True)], [((7.0, 8.0, 9.0), False)]],
])
def test_assemble_pair_rejects_inconsistent_attribute_counts(test_rows):
    from datetime import date

    from timeaware_cpdp.pairs import ConfigurationKind, PairSpec, TrainTestPair
    from synth import make_release

    pair = TrainTestPair(
        spec=PairSpec(kind=ConfigurationKind.II, window_k=None, split_index=1,
                      gap_buckets=0),
        train=(make_release("a", "1", date(2001, 1, 1),
                            [((1.0, 2.0), True), ((3.0, 4.0), False)]),),
        test=tuple(make_release(f"b{i}", "1", date(2002, 1, 1), rows)
                   for i, rows in enumerate(test_rows)))
    with pytest.raises(ValueError,
                       match=r"inconsistent attribute counts: \[2, 3\]"):
        assemble_pair(pair)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_treated_pair_rejects_non_finite_or_non_positive_weights(bad):
    tp = build_pair([[1.0], [2.0], [3.0], [4.0]], [True, True, False, False],
                    [[1.5]], [True])
    with pytest.raises(UnusableDataError, match="finite and positive"):
        dataclasses.replace(tp, train_weights=np.array([1.0, 1.0, bad, 1.0]))


@pytest.mark.parametrize("versions", [
    ((("t", "1"), 1),),                    # a row short
    ((("t", "1"), 3),),                    # a row over
    ((("t", "1"), 2), (("t", "2"), 0)),    # an empty version
    ((("t", "1"), 3), (("t", "2"), -1)),   # the right sum, a negative count
])
def test_treated_pair_rejects_test_versions_that_miss_the_test_rows(versions):
    tp = build_pair([[1.0], [2.0]], [True, False], [[1.5], [2.5]],
                    [True, False])
    with pytest.raises(ValueError, match="test version counts"):
        dataclasses.replace(tp, test_versions=versions)


def test_identity_changes_nothing():
    tp = build_pair([[1, 2], [3, 4]], [True, False], [[5, 6]], [True])
    out = identity_treatment(tp)
    assert np.array_equal(out.train_features, tp.train_features)
    assert np.array_equal(out.test_features, tp.test_features)
    assert np.array_equal(out.train_weights, [1.0, 1.0])
    assert out is tp


def test_watanabe08_rescales_test_by_mean_ratio():
    # train attribute means 4.0 and 10.0, test means 2.0 and 5.0
    tp = build_pair([[3.0, 12.0], [5.0, 8.0]], [True, False],
                    [[2.0, 5.0], [2.0, 5.0]], [True, False])
    out = watanabe08(tp)
    # test value 2.0 scaled by 4/2 becomes 4.0; second attribute by 10/5
    assert out.test_features == pytest.approx(
        np.array([[4.0, 10.0], [4.0, 10.0]]), abs=1e-12)
    assert np.array_equal(out.train_features, tp.train_features)
    assert np.array_equal(out.train_weights, [1.0, 1.0])


def test_watanabe08_equal_means_is_identity():
    tp = build_pair([[1.0], [3.0]], [True, False], [[0.5], [3.5]], [True, False])
    out = watanabe08(tp)
    assert out.test_features == pytest.approx(np.array([[0.5], [3.5]]),
                                              abs=1e-12)


def test_watanabe08_zero_test_mean_keeps_values():
    tp = build_pair([[1.0, 1.0], [3.0, 3.0]], [True, False],
                    [[0.0, 2.0], [0.0, 2.0]], [True, False])
    out = watanabe08(tp)
    assert out.test_features[:, 0] == pytest.approx([0.0, 0.0], abs=0)
    assert out.test_features[:, 1] == pytest.approx([2.0, 2.0], abs=1e-12)


def test_watanabe08_composition_squares_the_ratio():
    # train mean 4 over test mean 2: every test value is doubled
    tp = build_pair([[3.0], [5.0]], [True, False], [[1.0], [3.0]], [True, False])
    once = watanabe08(tp)
    assert once.test_features == pytest.approx(np.array([[2.0], [6.0]]),
                                               abs=1e-12)
    # the same factor again, against the original statistics, squares it
    factors = once.test_features / tp.test_features
    assert once.test_features * factors == pytest.approx(
        tp.test_features * 2.0 ** 2, abs=1e-12)
    # recomputing the statistics after one application is a fixed point
    again = watanabe08(once)
    assert again.test_features == pytest.approx(once.test_features, abs=1e-12)


# two values near the float64 maximum, whose sum overflows
HUGE = (1e308, 1.5e308)


@pytest.mark.parametrize("train_x, test_x, message", [
    ([[HUGE[0], 1.0], [HUGE[1], 2.0]], [[1.0, 2.0], [3.0, 1.0]],
     "attribute 0: its training mean"),
    ([[1.0, 2.0], [3.0, 1.0]], [[1.0, HUGE[0]], [2.0, HUGE[1]]],
     "attribute 1: its test mean"),
    # finite means, but 1e308 scaled by 1.5e308 / 0.5e308 does not fit
    ([[HUGE[1]]], [[HUGE[0]], [0.0]], "attribute 0: its rescaled test value"),
])
def test_watanabe08_overflow_is_a_named_error(train_x, test_x, message):
    tp = build_pair(train_x, [True] * len(train_x), test_x, [True, False])
    with pytest.raises(UnusableDataError,
                       match=f"watanabe08 cannot use {message} overflows float64"):
        watanabe08(tp)


def test_nam15_overflowing_median_is_a_named_error():
    # the median of two values is their mean, whose sum overflows
    tp = build_pair([[1.0, HUGE[0]], [2.0, HUGE[1]]], [True, False],
                    [[1.0, 1.0]], [False])
    with pytest.raises(UnusableDataError, match="nam15 cannot use attribute 1: "
                                         "its training median overflows float64"):
        nam15(tp)


def test_camargocruz09_median_shift():
    e = math.e
    train = [[e - 1.0], [e ** 2 - 1.0], [e ** 3 - 1.0]]   # log terms 1, 2, 3
    test = [[e ** 0.5 - 1.0], [e - 1.0], [e ** 1.5 - 1.0]]  # log terms .5, 1, 1.5
    tp = build_pair(train, [True, False, True], test, [True, False, False])
    out = camargocruz09(tp)
    # train median log term 2.0, test median 1.0: train value e-1 maps to
    # 1 + 2 - 1 = 2.0
    assert out.train_features[:, 0] == pytest.approx([2.0, 3.0, 4.0],
                                                     abs=1e-12)
    assert out.test_features[:, 0] == pytest.approx([0.5, 1.0, 1.5], abs=1e-12)


def test_camargocruz09_identical_sides_reduce_to_log():
    x = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    tp = build_pair(x, [True, False, True], x, [True, False, True])
    out = camargocruz09(tp)
    assert out.train_features == pytest.approx(np.log1p(np.asarray(x)),
                                               abs=1e-12)
    assert out.test_features == pytest.approx(np.log1p(np.asarray(x)),
                                              abs=1e-12)


def test_camargocruz09_rejects_negative_values():
    tp = build_pair([[1.0, 2.0], [3.0, -0.5]], [True, False],
                    [[1.0, 1.0]], [True])
    with pytest.raises(UnusableDataError, match=r"row 1, attribute 1"):
        camargocruz09(tp)
    tp = build_pair([[1.0]], [True], [[-2.0]], [True])
    with pytest.raises(UnusableDataError, match=r"test row 0, attribute 0"):
        camargocruz09(tp)


def test_ma12_weight_formula():
    p = 20
    test = [[0.0] * p, [1.0] * p]           # attribute ranges all [0, 1]
    half_in = [0.5] * 10 + [5.0] * 10       # exactly 10 attributes inside
    all_in = [0.5] * p
    all_out = [5.0] * p
    tp = build_pair([half_in, all_in, all_out], [True, False, True],
                    test, [True, False])
    out = ma12(tp)
    assert out.train_weights[0] == pytest.approx(10.0 / 121.0, abs=1e-15)
    assert out.train_weights[1] == pytest.approx(float(p), abs=1e-12)
    assert out.train_weights[2] == pytest.approx(1e-6, abs=0)
    assert np.array_equal(out.train_features, tp.train_features)
    assert np.array_equal(out.test_features, tp.test_features)


def test_ma12_range_bounds_are_inclusive():
    tp = build_pair([[0.0, 1.0]], [True], [[0.0, 0.5], [1.0, 1.0]], [True, False])
    out = ma12(tp)
    # both values sit exactly on a range bound and count as similar
    assert out.train_weights[0] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("p", [1, 5, 20])
def test_ma12_weights_strictly_increase_with_simatts(p):
    test = [[0.0] * p, [1.0] * p]
    rows = [[0.5] * s + [9.0] * (p - s) for s in range(p + 1)]
    tp = build_pair(rows, [True] * (p + 1), test, [True, False])
    weights = ma12(tp).train_weights
    for s in range(p):
        assert weights[s] < weights[s + 1]


def test_amasaki15_identical_sides_keep_everything():
    x = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    tp = build_pair(x, [True, False, True], x, [False, True, False])
    out = amasaki15(tp)
    assert out.train_features.shape == (3, 2)
    assert out.test_features == pytest.approx(np.log1p(np.asarray(x)))
    assert list(out.train_labels) == [True, False, True]


# log-space features: the last two training rows are far from the test rows
FAR_LOG_TRAIN = np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.2], [0.3, 0.3],
                          [10.0, 10.0], [10.05, 10.05]])
FAR_LOG_TEST = np.array([[0.05, 0.05], [0.15, 0.15], [0.25, 0.25]])


def test_amasaki15_drops_far_training_instances():
    t_train, t_test = FAR_LOG_TRAIN, FAR_LOG_TEST
    tp = build_pair(np.expm1(t_train), [True, False, True, False, True, True],
                    np.expm1(t_test), [True, False, True])
    out = amasaki15(tp)
    # attribute values are mutually close, so both attributes survive, but
    # the two instances near (10, 10) are far from every test instance
    assert out.train_features.shape == (4, 2)
    assert out.train_features == pytest.approx(t_train[:4], abs=1e-9)
    assert out.test_features == pytest.approx(t_test, abs=1e-9)
    assert list(out.train_labels) == [True, False, True, False]


def test_amasaki15_degenerate_attribute_selection():
    tp = build_pair([[0.0], [5.0]], [True, False], [[10.0]], [True])
    with pytest.raises(DegenerateTreatmentError):
        amasaki15(tp, attr_mad_mult=0.1)


def test_amasaki15_degenerate_relevancy_filter():
    tp = build_pair([[1.0], [2.0]], [True, False], [[3.0]], [True])
    with pytest.raises(DegenerateTreatmentError):
        amasaki15(tp, relevancy_mult=0.0)


def test_amasaki15_rejects_negative_values():
    tp = build_pair([[-1.0]], [True], [[1.0]], [True])
    with pytest.raises(UnusableDataError):
        amasaki15(tp)


def test_nam15_two_instance_extremes():
    # one instance above every training median, one below; the generated
    # labels override whatever the originals were
    tp = build_pair([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]], [True, False],
                    [[1.0, 1.0, 1.0]], [True])
    out = nam15(tp)
    assert out is not tp
    assert list(out.train_labels) == [False, True]
    assert np.array_equal(out.train_features, tp.train_features)
    assert np.array_equal(out.test_features, tp.test_features)


NAM15_SIX_BY_FOUR = [
    [1.0, 10.0, 9.0, 100.0],
    [2.0, 20.0, 8.0, 200.0],
    [6.5, 30.0, 7.0, 300.0],
    [4.0, 40.0, 1.0, 400.0],
    [5.0, 50.0, 2.0, 500.0],
    [6.0, 60.0, 3.0, 600.0],
]


def test_nam15_hand_traced_six_by_four():
    x = NAM15_SIX_BY_FOUR
    # medians per attribute: 4.5, 35, 5, 350
    # above-median counts K: [1, 1, 2, 2, 3, 3], median K = 2
    # generated labels: rows 4 and 5 defective, rest clean
    # violations: attribute 2 violates for five rows (score 5, others 1),
    # so attribute 2 is dropped (median attribute score 1);
    # instance violation scores over kept attributes [0, 0, 1, 2, 0, 0]
    # with median 0 drop rows 2 and 3
    tp = build_pair(x, [False] * 6, [[1.0, 2.0, 3.0, 4.0]], [True])
    out = nam15(tp)
    assert out is not tp
    expected_rows = np.asarray(x, dtype=float)[[0, 1, 4, 5]][:, [0, 1, 3]]
    assert np.array_equal(out.train_features, expected_rows)
    assert list(out.train_labels) == [False, False, True, True]
    assert np.array_equal(out.train_weights, np.ones(4))
    assert out.test_features.tolist() == [[1.0, 2.0, 4.0]]


def test_nam15_constant_matrix_falls_back():
    tp = build_pair([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]],
                    [True, False, True], [[1.0, 1.0]], [True])
    out = nam15(tp)
    assert out is tp
    assert list(out.train_labels) == [True, False, True]
    assert out.train_features.shape == (3, 2)


def test_nam15_single_generated_class_falls_back():
    # K values 2, 2, 2, 1: median 2, nothing strictly above -> no defectives
    x = [
        [1.0, 5.0, 5.0],
        [5.0, 1.0, 5.0],
        [5.0, 5.0, 1.0],
        [1.0, 1.0, 1.0],
    ]
    tp = build_pair(x, [True, False, False, True], [[1.0, 1.0, 1.0]], [True])
    out = nam15(tp)
    assert out is tp
    assert list(out.train_labels) == [True, False, False, True]


def test_nam15_needs_two_instances():
    tp = build_pair([[1.0]], [True], [[1.0]], [True])
    with pytest.raises(UnusableDataError):
        nam15(tp)


@pytest.mark.parametrize("treat, train_x, test_x, kept", [
    (identity_treatment, FAR_LOG_TRAIN, FAR_LOG_TEST, range(6)),
    (watanabe08, FAR_LOG_TRAIN, FAR_LOG_TEST, range(6)),
    (camargocruz09, FAR_LOG_TRAIN, FAR_LOG_TEST, range(6)),
    (amasaki15, np.expm1(FAR_LOG_TRAIN), np.expm1(FAR_LOG_TEST), [0, 1, 2, 3]),
    (nam15, NAM15_SIX_BY_FOUR, [[1.0, 1.0, 1.0, 1.0]], [0, 1, 4, 5]),
    (nam15, [[2.0], [2.0], [2.0]], [[1.0]], range(3)),  # the label fallback
])
def test_treatments_but_ma12_keep_their_input_weights(treat, train_x, test_x,
                                                      kept):
    tp = build_pair(train_x, [i % 2 == 0 for i in range(len(train_x))],
                    test_x, [True] * len(test_x))
    weights = np.linspace(0.5, 3.0, tp.n_train)
    out = treat(dataclasses.replace(tp, train_weights=weights))
    assert np.array_equal(out.train_weights, weights[list(kept)])


def test_treatments_do_not_mutate_inputs():
    rng = np.random.default_rng(5)
    train = np.abs(rng.normal(2.0, 1.0, size=(12, 4)))
    test = np.abs(rng.normal(2.5, 1.0, size=(9, 4)))
    labels = rng.random(12) < 0.5
    labels[:2] = [True, False]
    tp = build_pair(train, labels, test, rng.random(9) < 0.5)
    train_copy = tp.train_features.copy()
    test_copy = tp.test_features.copy()
    for treat in (identity_treatment, watanabe08, camargocruz09, ma12,
                  amasaki15, nam15):
        treat(tp)
        assert np.array_equal(tp.train_features, train_copy)
        assert np.array_equal(tp.test_features, test_copy)
        assert np.all(tp.train_weights == 1.0)


@pytest.mark.parametrize("field", ["train_features", "train_labels",
                                   "train_weights", "test_features",
                                   "test_labels"])
def test_assembled_arrays_are_read_only(field):
    # treatments pass these arrays on uncopied, so nothing may write them
    tp = assembled_pair()
    array = getattr(tp, field)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = array[1]


def test_treatments_share_the_arrays_they_keep():
    tp = assembled_pair()
    for treat in (identity_treatment, watanabe08, ma12):
        assert treat(tp).train_features is tp.train_features
    for treat in (identity_treatment, ma12):
        assert treat(tp).test_features is tp.test_features


def test_treatments_carry_test_rows_through_unchanged():
    rng = np.random.default_rng(6)
    train = np.abs(rng.normal(2.0, 1.0, size=(10, 3)))
    test = np.abs(rng.normal(2.0, 1.0, size=(7, 3)))
    labels = rng.random(10) < 0.5
    labels[:2] = [True, False]
    test_labels = rng.random(7) < 0.5
    tp = build_pair(train, labels, test, test_labels)
    for treat in (watanabe08, ma12, nam15):
        out = treat(tp)
        assert out.n_test == 7
        assert np.array_equal(out.test_labels, tp.test_labels)
        assert out.test_versions == tp.test_versions


# few values, so ties, equal medians and zero test means occur
VALUES = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.5, 8.0))


def training_side(treat, tp):
    """What a treatment hands to the tree, or the error it raises instead."""
    try:
        out = treat(tp)
    except (DegenerateTreatmentError, ValueError) as exc:
        return type(exc), str(exc)
    return (out.train_features.shape, out.train_features.tobytes(),
            out.train_labels.tobytes(), out.train_weights.tobytes(),
            out.test_features.shape, out.test_features.tobytes())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_treatments_never_read_test_labels(data):
    d = data.draw(st.integers(1, 3))

    def rows(n):
        return [[data.draw(VALUES) for _ in range(d)] for _ in range(n)]

    n_train = data.draw(st.integers(2, 9))
    n_test = data.draw(st.integers(2, 7))
    train_y = [i % 2 == 0 for i in range(n_train)]
    test_y = data.draw(st.lists(st.booleans(), min_size=n_test,
                                max_size=n_test))
    tp = build_pair(rows(n_train), train_y, rows(n_test), test_y)
    permuted = dataclasses.replace(tp, test_labels=np.array(
        data.draw(st.permutations(test_y)), dtype=bool))
    for treat in (identity_treatment, watanabe08, camargocruz09, ma12,
                  amasaki15, nam15):
        assert training_side(treat, permuted) == training_side(treat, tp)


# few distinct values, so ties (and -0.0 against 0.0) are common
MEDIAN_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0, 1e308, -1e308,
                                 math.inf, -math.inf, math.nan, 5e-324])
MEDIAN_INTS = st.sampled_from([0, 1, -7, 3, 2**62 + 1, 2**62 + 3, -2**63])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_median_matches_numpy_bit_for_bit(data):
    dtype, elements = data.draw(st.sampled_from(
        ((np.float64, MEDIAN_FLOATS | st.floats(-10, 10)),
         (np.int64, MEDIAN_INTS | st.integers(-10, 10)))))
    # odd and even lengths along both axes
    shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    values = data.draw(hnp.arrays(dtype, shape, elements=elements))
    axis = data.draw(st.sampled_from((0, 1, None)))
    with np.errstate(all="ignore"):  # the sum of two huge middles overflows
        expected = np.median(values, axis=axis)
        actual = _median(values, axis=axis)
    assert type(actual) is type(expected)
    assert actual.dtype == expected.dtype
    assert np.asarray(actual).tobytes() == np.asarray(expected).tobytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                  elements=MEDIAN_FLOATS.filter(lambda v: not math.isnan(v))
                  | st.floats(-10, 10)),
       st.sampled_from((0, 1)))
def test_middle_of_sorted_rows_is_the_median(values, axis):
    """amasaki15 takes its pool medians from rows it has sorted anyway.

    Whichever of -0.0 and 0.0 sorts first, the middle is np.median's.
    """
    with np.errstate(all="ignore"):
        expected = np.median(values, axis=axis)
        actual = _middle(np.sort(values, axis=axis), axis)
    assert actual.tobytes() == expected.tobytes()


def test_a_run_does_not_import_numpy_ma(tmp_path):
    """np.median imports numpy.ma on its first call; the treatments do not."""
    cfg = write_experiment(tmp_path, **{"run.baseline_crossval": "3"})
    src = Path(timeaware_cpdp.__file__).parents[1]
    code = ("import sys; from timeaware_cpdp.cli import main; "
            "assert main(['run', '--config', sys.argv[1]]) == 0; "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(cfg)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    manifest = (tmp_path / "out" / "manifest.json").read_text()
    assert '"pair_technique_failures": 0' in manifest
