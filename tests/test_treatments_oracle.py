"""amasaki15's two searches against the reference forms in treatments_oracle.py.

Distances. On random values, whose squares and sums round, every chunk
size must give the same bytes. On well-conditioned data (a coarse value
grid, whose squares and products are exact in float64) the chunked
direct differences must give the distances of the |a|² + |b|² - 2a·b
form in treatments_oracle.py, and amasaki15 must keep the same
attributes and training rows with either. amasaki15 measures distances
after ``log1p``, so its features are ``expm1`` of the grid: the log
brings back the grid values exactly, both forms compute the same
squared sums, and ties at the relevancy threshold fall the same way.
The draws cover 1-8 attributes, duplicate rows on and across the two
sides, a single test row, and chunks from one training row to all of
them. On rows far from the origin and close together the oracle
cancels, and only the direct form matches ``math.dist``.

Attribute selection. The one-pass selection (one argsort over every
attribute) must keep the attributes the per-column loop keeps, so that
amasaki15 keeps the same attributes, rows and bytes, or raises the same
error. The draws cover ties within and across the two sides, one-row
training and test sides, constant columns (MAD 0) and the multipliers
0, 0.1, 1, 2.5 and NaN, which keeps no attribute.
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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 70), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_distances_do_not_depend_on_the_chunk_size(width, n, m, seed):
    # values off the grid, whose squares and sums round, so that any
    # change in how a cell's terms are summed would move a last bit
    rng = np.random.default_rng(seed)
    train = rng.normal(0.0, 1.0, size=(n, width)) * 10.0 ** rng.integers(-3, 4, width)
    test = np.concatenate([rng.normal(0.0, 1.0, size=(m, width)), train[:1]])
    outputs = set()
    for cells in (1, 7, 24, 60, treatments.DISTANCE_CHUNK_CELLS, 1 << 18):
        with mock.patch.object(treatments, "DISTANCE_CHUNK_CELLS", cells):
            outputs.add(_min_test_distances(train, test).tobytes())
    assert len(outputs) == 1


def log_grid_features(grid_rows):
    """Features whose log1p, as amasaki15 takes it, is exactly the grid."""
    features = np.expm1(grid_rows)
    assert np.array_equal(np.log1p(features), grid_rows)
    return features


def treated_pair(train, test, rng):
    """The features as a pair with random training labels."""
    return TreatedPair(
        train_features=train,
        train_labels=np.array([rng.random() < 0.5 for _ in train]),
        train_weights=np.ones(len(train)),
        test_features=test,
        test_labels=np.zeros(len(test), dtype=bool),
        test_versions=((("t", "1"), len(test)),))


def outcome(tp, **params):
    """What amasaki15 keeps, or the error it raises."""
    try:
        out = amasaki15(tp, **params)
    except DegenerateTreatmentError as exc:
        return str(exc)
    return (out.test_features.shape, out.train_features.tobytes(),
            out.train_labels.tobytes(), out.test_features.tobytes())


@settings(max_examples=300, deadline=None)
@given(distance_inputs(), st.randoms(use_true_random=False))
def test_amasaki15_keeps_the_oracle_rows_and_attributes(inputs, rng):
    train, test, cells = inputs
    tp = treated_pair(log_grid_features(train), log_grid_features(test), rng)
    with mock.patch.object(treatments, "DISTANCE_CHUNK_CELLS", cells):
        actual = outcome(tp)
    with mock.patch.object(treatments, "_min_test_distances",
                           oracle._min_test_distances):
        expected = outcome(tp)
    event("degenerate" if isinstance(expected, str) else "rows kept")
    assert actual == expected


# a few shared values make ties within a column and across the two sides
TIE_VALUES = (0.0, 1.0, 3.0, 7.5, 1e-300, 1e6)


@st.composite
def selection_inputs(draw):
    width = draw(st.integers(1, 6))
    n_train = draw(st.sampled_from((1, 2, 3, 8, 20)))
    n_test = draw(st.sampled_from((1, 2, 5, 12)))
    value = st.one_of(st.sampled_from(TIE_VALUES),
                      st.floats(0.0, 1e9, allow_nan=False))
    columns = []
    for _ in range(width):
        if draw(st.integers(0, 4)) == 0:
            columns.append([draw(value)] * (n_train + n_test))
        else:
            columns.append(draw(st.lists(value, min_size=n_train + n_test,
                                         max_size=n_train + n_test)))
    features = np.array(columns).T
    train, test = features[:n_train], features[n_train:]
    # whole rows repeated across the two sides
    for i in draw(st.lists(st.integers(0, n_train - 1), max_size=2)):
        test[i % n_test] = train[i]
    mult = draw(st.sampled_from((0.0, 0.1, 1.0, 2.5, math.nan)))
    log_train = np.log1p(train)
    for col, pool in enumerate(np.log1p(features).T):
        if np.unique(pool).size == 1:
            event("constant column")
        elif np.median(np.abs(pool - np.median(pool))) == 0:
            event("MAD 0, column not constant")
        if np.unique(log_train[:, col]).size < n_train:
            event("tie within the training side")
        if np.intersect1d(log_train[:, col], np.log1p(test[:, col])).size:
            event("value on both sides")
    if n_train == 1:
        event("one training row")
    if n_test == 1:
        event("one test row")
    return train, test, mult


@settings(max_examples=400, deadline=None)
@given(selection_inputs(), st.randoms(use_true_random=False))
def test_amasaki15_selects_the_attributes_of_the_loop_oracle(inputs, rng):
    train, test, mult = inputs
    tp = treated_pair(train, test, rng)
    actual = outcome(tp, attr_mad_mult=mult)
    with mock.patch.object(treatments, "_select_attributes",
                           oracle._select_attributes):
        expected = outcome(tp, attr_mad_mult=mult)
    if isinstance(expected, str):
        event(expected)
    elif len(expected[0]) < train.shape[1]:
        event("some attributes dropped")
    else:
        event("every attribute kept")
    assert actual == expected


def test_close_rows_far_from_the_origin_do_not_cancel():
    train = np.array([[20.0, 20.0]])
    test = np.array([[20.0 + 1e-6, 20.0], [30.0, 30.0]])
    exact = math.dist(train[0], test[0])
    assert _min_test_distances(train, test)[0] == pytest.approx(exact, rel=1e-12)
    # the case is ill-conditioned for the expansion, so it tests something
    dot_product = oracle._min_test_distances(train, test)[0]
    assert abs(dot_product - exact) > 0.01 * exact
