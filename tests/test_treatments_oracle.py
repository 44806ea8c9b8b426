"""amasaki15's direct nearest-test distances against the dot-product oracle.

On well-conditioned data (a coarse value grid, whose squares and
products are exact in float64) the chunked direct differences must give
the distances of the |a|² + |b|² - 2a·b form in treatments_oracle.py,
and amasaki15 must keep the same attributes and training rows with
either. amasaki15 measures distances after ``log1p``, so its features
are ``expm1`` of the grid: the log brings back the grid values exactly,
both forms compute the same squared sums, and ties at the relevancy
threshold fall the same way. The draws cover 1-8 attributes, duplicate
rows on and across the two sides, a single test row, and chunks from
one training row to all of them. On rows far from the origin and close
together the oracle cancels, and only the direct form matches
``math.dist``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import treatments_oracle as oracle
from timeaware_cpdp import treatments
from timeaware_cpdp.errors import DegenerateTreatmentError
from timeaware_cpdp.treatments import TreatedPair, _min_test_distances, amasaki15

GRID = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 40.0)


@st.composite
def distance_inputs(draw):
    width = draw(st.integers(1, 8))
    row = st.lists(st.sampled_from(GRID), min_size=width, max_size=width)
    train = draw(st.lists(row, min_size=1, max_size=25))
    test = draw(st.lists(row, min_size=2, max_size=12))
    # duplicate rows within the training side and across the two sides
    train += draw(st.lists(st.sampled_from(train), max_size=5))
    test += draw(st.lists(st.sampled_from(train), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        test = test[:1]
    # one training row per chunk, a few, or all of them at once
    cells = draw(st.sampled_from((1, 7, 24, 60, treatments.DISTANCE_CHUNK_CELLS)))
    train, test = np.array(train), np.array(test)
    if len(np.unique(train, axis=0)) < len(train):
        event("duplicate training rows")
    if len(test) == 1:
        event("single test row")
    if 1 < max(1, cells // len(test)) < len(train):
        event("several rows per chunk, more than one chunk")
    return train, test, cells


@settings(max_examples=300, deadline=None)
@given(distance_inputs())
def test_distances_match_dot_product_oracle(inputs):
    train, test, cells = inputs
    with mock.patch.object(treatments, "DISTANCE_CHUNK_CELLS", cells):
        actual = _min_test_distances(train, test)
    np.testing.assert_allclose(actual, oracle._min_test_distances(train, test),
                               rtol=0, atol=1e-9)


def log_grid_features(grid_rows):
    """Features whose log1p, as amasaki15 takes it, is exactly the grid."""
    features = np.expm1(grid_rows)
    assert np.array_equal(np.log1p(features), grid_rows)
    return features


def outcome(tp):
    """What amasaki15 keeps, or the error it raises."""
    try:
        out = amasaki15(tp)
    except DegenerateTreatmentError as exc:
        return str(exc)
    return (out.selected_attributes, out.train_features.tobytes(),
            out.train_labels.tobytes(), out.test_features.tobytes())


@settings(max_examples=300, deadline=None)
@given(distance_inputs(), st.randoms(use_true_random=False))
def test_amasaki15_keeps_the_oracle_rows_and_attributes(inputs, rng):
    train, test, cells = inputs
    tp = TreatedPair(
        train_features=log_grid_features(train),
        train_labels=np.array([rng.random() < 0.5 for _ in train]),
        train_weights=np.ones(len(train)),
        test_features=log_grid_features(test),
        test_labels=np.zeros(len(test), dtype=bool),
        test_version_keys=(("t", "1"),) * len(test),
        selected_attributes=tuple(range(train.shape[1])))
    with mock.patch.object(treatments, "DISTANCE_CHUNK_CELLS", cells):
        actual = outcome(tp)
    with mock.patch.object(treatments, "_min_test_distances",
                           oracle._min_test_distances):
        expected = outcome(tp)
    event("degenerate" if isinstance(expected, str) else "rows kept")
    assert actual == expected


def test_close_rows_far_from_the_origin_do_not_cancel():
    train = np.array([[20.0, 20.0]])
    test = np.array([[20.0 + 1e-6, 20.0], [30.0, 30.0]])
    exact = math.dist(train[0], test[0])
    assert _min_test_distances(train, test)[0] == pytest.approx(exact, rel=1e-12)
    # the case is ill-conditioned for the expansion, so it tests something
    dot_product = oracle._min_test_distances(train, test)[0]
    assert abs(dot_product - exact) > 0.01 * exact
