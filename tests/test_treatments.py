"""Treatment semantics: fixtures with hand-computed expectations."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeaware_cpdp.errors import DegenerateTreatmentError
from timeaware_cpdp.treatments import (TreatedPair, amasaki15, assemble_pair,
                                       camargocruz09, identity_treatment,
                                       ma12, nam15, watanabe08,
                                       watanabe08_factors)


def build_pair(train_x, train_y, test_x, test_y) -> TreatedPair:
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    return TreatedPair(
        train_features=train_x,
        train_labels=np.asarray(train_y, dtype=bool),
        train_weights=np.ones(len(train_x)),
        test_features=test_x,
        test_labels=np.asarray(test_y, dtype=bool),
        test_version_keys=tuple(("t", "1") for _ in range(len(test_x))),
        selected_attributes=tuple(range(train_x.shape[1])))


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
    assert tp.test_version_keys == (("b", "1"), ("c", "1"))
    assert list(tp.train_labels) == [True, False]
    assert list(tp.train_weights) == [1.0, 1.0]
    assert tp.selected_attributes == (0, 1)


@pytest.mark.parametrize("test_rows", [
    [((5.0, 6.0, 7.0), True)],                   # widths differ by release
    [((5.0, 6.0), True), ((7.0, 8.0, 9.0), False)],  # and within one
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
        test=(make_release("b", "1", date(2002, 1, 1), test_rows),))
    with pytest.raises(ValueError,
                       match=r"inconsistent attribute counts: \[2, 3\]"):
        assemble_pair(pair)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_treated_pair_rejects_non_finite_or_non_positive_weights(bad):
    tp = build_pair([[1.0], [2.0], [3.0], [4.0]], [True, True, False, False],
                    [[1.5]], [True])
    with pytest.raises(ValueError, match="finite and positive"):
        dataclasses.replace(tp, train_weights=np.array([1.0, 1.0, bad, 1.0]))


def test_identity_changes_nothing():
    tp = build_pair([[1, 2], [3, 4]], [True, False], [[5, 6]], [True])
    out = identity_treatment(tp)
    assert np.array_equal(out.train_features, tp.train_features)
    assert np.array_equal(out.test_features, tp.test_features)
    assert np.array_equal(out.train_weights, [1.0, 1.0])
    assert out.selected_attributes == (0, 1)


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
    tp = build_pair([[3.0], [5.0]], [True, False], [[1.0], [3.0]], [True, False])
    factors = watanabe08_factors(tp)
    once = watanabe08(tp)
    twice_same_reference = once.test_features * factors
    assert twice_same_reference == pytest.approx(
        tp.test_features * factors ** 2, abs=1e-12)
    # recomputing the statistics after one application is a fixed point
    again = watanabe08(once)
    assert again.test_features == pytest.approx(once.test_features, abs=1e-12)


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
    with pytest.raises(ValueError, match=r"row 1, attribute 1"):
        camargocruz09(tp)
    tp = build_pair([[1.0]], [True], [[-2.0]], [True])
    with pytest.raises(ValueError, match=r"test row 0, attribute 0"):
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
    assert out.selected_attributes == (0, 1)
    assert out.train_features.shape == (3, 2)
    assert out.test_features == pytest.approx(np.log1p(np.asarray(x)))
    assert list(out.train_labels) == [True, False, True]


def test_amasaki15_drops_far_training_instances():
    t_train = np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.2], [0.3, 0.3],
                        [10.0, 10.0], [10.05, 10.05]])
    t_test = np.array([[0.05, 0.05], [0.15, 0.15], [0.25, 0.25]])
    tp = build_pair(np.expm1(t_train), [True, False, True, False, True, True],
                    np.expm1(t_test), [True, False, True])
    out = amasaki15(tp)
    # attribute values are mutually close, so both attributes survive, but
    # the two instances near (10, 10) are far from every test instance
    assert out.selected_attributes == (0, 1)
    assert out.train_features.shape == (4, 2)
    assert out.train_features == pytest.approx(t_train[:4], abs=1e-9)
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
    with pytest.raises(ValueError):
        amasaki15(tp)


def test_nam15_two_instance_extremes():
    # one instance above every training median, one below; the generated
    # labels override whatever the originals were
    tp = build_pair([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]], [True, False],
                    [[1.0, 1.0, 1.0]], [True])
    out = nam15(tp)
    assert not out.label_fallback
    assert list(out.train_labels) == [False, True]
    assert out.train_features.shape == (2, 3)
    assert out.selected_attributes == (0, 1, 2)


def test_nam15_hand_traced_six_by_four():
    x = [
        [1.0, 10.0, 9.0, 100.0],
        [2.0, 20.0, 8.0, 200.0],
        [6.5, 30.0, 7.0, 300.0],
        [4.0, 40.0, 1.0, 400.0],
        [5.0, 50.0, 2.0, 500.0],
        [6.0, 60.0, 3.0, 600.0],
    ]
    # medians per attribute: 4.5, 35, 5, 350
    # above-median counts K: [1, 1, 2, 2, 3, 3], median K = 2
    # generated labels: rows 4 and 5 defective, rest clean
    # violations: attribute 2 violates for five rows (score 5, others 1),
    # so attribute 2 is dropped (median attribute score 1);
    # instance violation scores over kept attributes [0, 0, 1, 2, 0, 0]
    # with median 0 drop rows 2 and 3
    tp = build_pair(x, [False] * 6, [[1.0, 1.0, 1.0, 1.0]], [True])
    out = nam15(tp)
    assert not out.label_fallback
    assert out.selected_attributes == (0, 1, 3)
    expected_rows = np.asarray(x, dtype=float)[[0, 1, 4, 5]][:, [0, 1, 3]]
    assert np.array_equal(out.train_features, expected_rows)
    assert list(out.train_labels) == [False, False, True, True]
    assert np.array_equal(out.train_weights, np.ones(4))
    assert out.test_features.shape == (1, 3)


def test_nam15_constant_matrix_falls_back():
    tp = build_pair([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]],
                    [True, False, True], [[1.0, 1.0]], [True])
    out = nam15(tp)
    assert out.label_fallback
    assert list(out.train_labels) == [True, False, True]
    assert out.selected_attributes == (0, 1)
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
    assert out.label_fallback
    assert list(out.train_labels) == [True, False, False, True]


def test_nam15_explicit_threshold_relaxes_instance_filter():
    x = [
        [1.0, 10.0, 9.0, 100.0],
        [2.0, 20.0, 8.0, 200.0],
        [6.5, 30.0, 7.0, 300.0],
        [4.0, 40.0, 1.0, 400.0],
        [5.0, 50.0, 2.0, 500.0],
        [6.0, 60.0, 3.0, 600.0],
    ]
    tp = build_pair(x, [False] * 6, [[1.0] * 4], [True])
    # attribute cut 0.4 * 6 = 2.4 drops only attribute 2 (score 5);
    # instance cut 0.4 * 3 = 1.2 drops only row 3 (score 2), keeping row 2
    # that the median rule would remove
    out = nam15(tp, violation_threshold=0.4)
    assert out.selected_attributes == (0, 1, 3)
    assert list(out.train_labels) == [False, False, False, True, True]
    assert out.train_features.shape == (5, 3)


def test_nam15_zero_threshold_drops_every_attribute():
    x = [
        [1.0, 10.0, 9.0, 100.0],
        [2.0, 20.0, 8.0, 200.0],
        [6.5, 30.0, 7.0, 300.0],
        [4.0, 40.0, 1.0, 400.0],
        [5.0, 50.0, 2.0, 500.0],
        [6.0, 60.0, 3.0, 600.0],
    ]
    tp = build_pair(x, [False] * 6, [[1.0] * 4], [True])
    # every attribute carries at least one violation here
    with pytest.raises(DegenerateTreatmentError):
        nam15(tp, violation_threshold=0.0)


def test_nam15_needs_two_instances():
    tp = build_pair([[1.0]], [True], [[1.0]], [True])
    with pytest.raises(ValueError):
        nam15(tp)


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
        assert out.test_version_keys == tp.test_version_keys


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
            out.selected_attributes)


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
