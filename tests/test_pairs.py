"""Pair enumeration: configurations, filtering, determinism."""

import random
from datetime import date

import pytest

from timeaware_cpdp.dataset import add_months, bucketize
from timeaware_cpdp.errors import ConfigError
from timeaware_cpdp.pairs import (ConfigurationKind, crossval_pairs,
                                  enumerate_pairs)

from synth import (make_release, oracle_bucket_index, oracle_pairs,
                   pair_as_tuple, random_dataset, simple_release,
                   toy_three_buckets)

CC = ConfigurationKind.CC
IC = ConfigurationKind.IC
CI = ConfigurationKind.CI
II = ConfigurationKind.II


@pytest.fixture(scope="module")
def toy_ts():
    return bucketize(toy_three_buckets(), granularity_months=12)


def keys(pairs):
    return [pair_as_tuple(p) for p in pairs]


I2008 = ("i", "2008")
J2009 = ("j", "2009")
K2010 = ("k", "2010")


def test_toy_cc_gap0(toy_ts):
    got = keys(enumerate_pairs(toy_ts, CC, gap_buckets=0))
    # window 1 and 2 reproduce the four worked rows, truncation included;
    # window 3 duplicates the window-2 set combinations and is kept
    assert got == [
        (1, 1, [I2008], [J2009]),
        (1, 2, [J2009], [K2010]),
        (2, 1, [I2008], [J2009, K2010]),
        (2, 2, [I2008, J2009], [K2010]),
        (3, 1, [I2008], [J2009, K2010]),
        (3, 2, [I2008, J2009], [K2010]),
    ]


def test_toy_ic_gap0(toy_ts):
    got = keys(enumerate_pairs(toy_ts, IC, gap_buckets=0))
    assert got == [
        (1, 1, [I2008], [J2009]),
        (1, 2, [I2008, J2009], [K2010]),
        (2, 1, [I2008], [J2009, K2010]),
        (2, 2, [I2008, J2009], [K2010]),
    ]


def test_toy_ci_gap0(toy_ts):
    got = keys(enumerate_pairs(toy_ts, CI, gap_buckets=0))
    assert got == [
        (1, 1, [I2008], [J2009, K2010]),
        (1, 2, [J2009], [K2010]),
        (2, 1, [I2008], [J2009, K2010]),
        (2, 2, [I2008, J2009], [K2010]),
    ]


def test_toy_ii_gap0(toy_ts):
    got = keys(enumerate_pairs(toy_ts, II, gap_buckets=0))
    assert got == [
        (None, 1, [I2008], [J2009, K2010]),
        (None, 2, [I2008, J2009], [K2010]),
    ]


def test_toy_gap1_pushes_test_window_out(toy_ts):
    got = keys(enumerate_pairs(toy_ts, CC, gap_buckets=1))
    # with one bucket reserved between train and test only split 1 survives
    assert got == [
        (1, 1, [I2008], [K2010]),
        (2, 1, [I2008], [K2010]),
        (3, 1, [I2008], [K2010]),
    ]


def test_windows_per_kind():
    # one release per bucket, each from its own project: with gap 0 every
    # (window, split) keeps both sides, so every window is emitted
    releases = [simple_release(f"p{i}", "1", add_months(date(2001, 1, 1), 6 * i))
                for i in range(19)]
    ts = bucketize(releases, 6)
    assert ts.bucket_count == 19
    expected = {CC: list(range(1, 20)), IC: list(range(1, 19)),
                CI: list(range(1, 19)), II: [None]}
    for kind, windows in expected.items():
        got = [(p.spec.window_k, p.spec.split_index)
               for p in enumerate_pairs(ts, kind, gap_buckets=0)]
        assert got == [(k, split) for k in windows for split in range(1, 19)]
    with pytest.raises(ConfigError):
        enumerate_pairs(ts, ConfigurationKind.CROSSVAL)
    with pytest.raises(ConfigError):
        enumerate_pairs(ts, CC, gap_buckets=-1)


def test_enumerate_drops_pairs_with_an_empty_side():
    releases = [
        simple_release("a", "1", date(2001, 1, 5)),
        simple_release("b", "1", date(2002, 1, 5)),
    ]
    ts = bucketize(releases, 6)  # releases in buckets 0 and 2, bucket 1 empty
    a, b = ("a", "1"), ("b", "1")
    # II, gap 1: split 1 tests bucket 2 (b); split 2 would test bucket 3,
    # past the timeline
    assert keys(enumerate_pairs(ts, II, gap_buckets=1)) == [
        (None, 1, [a], [b])]
    # CC window 1: split 1 tests empty bucket 1, split 2 trains on it
    assert keys(enumerate_pairs(ts, CC, gap_buckets=0)) == [
        (2, 1, [a], [b]),
        (2, 2, [a], [b]),
        (3, 1, [a], [b]),
        (3, 2, [a], [b]),
    ]


def test_enumerate_removes_test_releases_of_training_projects():
    releases = [
        simple_release("a", "1", date(2001, 1, 1)),
        simple_release("a", "2", date(2002, 1, 1)),
        simple_release("b", "1", date(2002, 2, 1)),
        simple_release("a", "3", date(2003, 1, 1)),
    ]
    ts = bucketize(releases, 12)  # buckets: a1 | a2 b1 | a3
    # split 1 keeps b1 of its test side; split 2 tests only a3, whose
    # project trains, so the pair is dropped
    assert keys(enumerate_pairs(ts, II, gap_buckets=0)) == [
        (None, 1, [("a", "1")], [("b", "1")])]


def test_enumeration_is_input_order_independent():
    rng = random.Random(5)
    releases, granularity = random_dataset(rng)
    shuffled = releases[:]
    rng.shuffle(shuffled)
    for kind in (CC, IC, CI, II):
        a = keys(enumerate_pairs(bucketize(releases, granularity), kind, 1))
        b = keys(enumerate_pairs(bucketize(shuffled, granularity), kind, 1))
        assert a == b


def test_no_time_travel_and_oracle_agreement():
    rng = random.Random(17)
    for _ in range(60):
        releases, granularity = random_dataset(rng)
        ts = bucketize(releases, granularity)
        gap = rng.choice([0, 1, 2])
        for kind in (CC, IC, CI, II):
            pairs = enumerate_pairs(ts, kind, gap)
            assert keys(pairs) == oracle_pairs(ts, kind, gap)
            for pair in pairs:
                split_start = ts.buckets[pair.spec.split_index].start
                assert max(r.release_date for r in pair.train) < split_start
                test_buckets = [oracle_bucket_index(ts, r) for r in pair.test]
                assert min(test_buckets) >= pair.spec.split_index + gap
                train_projects = {r.project_id for r in pair.train}
                assert train_projects.isdisjoint(
                    {r.project_id for r in pair.test})
                assert pair.train and pair.test


def test_emission_order_ascending_window_then_split():
    rng = random.Random(23)
    releases, granularity = random_dataset(rng)
    ts = bucketize(releases, granularity)
    for kind in (CC, IC, CI):
        order = [(p.spec.window_k, p.spec.split_index)
                 for p in enumerate_pairs(ts, kind, 1)]
        assert order == sorted(order)


def by_split(pairs):
    """Kept pairs grouped by split, each list in ascending window order."""
    grouped = {}
    for pair in pairs:
        grouped.setdefault(pair.spec.split_index, []).append(pair)
    return grouped


def test_cc_train_windows_nest():
    rng = random.Random(29)
    for _ in range(20):
        releases, granularity = random_dataset(rng)
        ts = bucketize(releases, granularity)
        for kept in by_split(enumerate_pairs(ts, CC, gap_buckets=0)).values():
            trains = [{r.key for r in p.train} for p in kept]
            assert all(a <= b for a, b in zip(trains, trains[1:]))


def test_ic_test_windows_nest():
    rng = random.Random(31)
    releases, granularity = random_dataset(rng)
    ts = bucketize(releases, granularity)
    for kept in by_split(enumerate_pairs(ts, IC, gap_buckets=0)).values():
        tests = [{r.key for r in p.test} for p in kept]
        assert all(a <= b for a, b in zip(tests, tests[1:]))


def test_ii_equals_ic_with_maximal_window():
    # IC's largest window, bucket_count - 1, reaches the timeline's end
    # from every split, as II's test side does
    rng = random.Random(37)
    for _ in range(20):
        releases, granularity = random_dataset(rng)
        ts = bucketize(releases, granularity)
        ii = enumerate_pairs(ts, II, gap_buckets=1)
        ic = [p for p in enumerate_pairs(ts, IC, gap_buckets=1)
              if p.spec.window_k == ts.bucket_count - 1]
        assert [(p.spec.split_index, p.train, p.test) for p in ii] == \
               [(p.spec.split_index, p.train, p.test) for p in ic]


def test_exhaustive_single_release_combinations_count_time_travel():
    # three releases give six ordered train/test combinations; the three
    # training on a later release than they test on travel in time
    releases = toy_three_buckets()
    combos = [(a, b) for a in releases for b in releases if a is not b]
    assert len(combos) == 6
    travels = [1 for train, test in combos
               if train.release_date > test.release_date]
    assert sum(travels) == 3


def test_crossval_three_releases_three_folds():
    releases = toy_three_buckets()
    pairs = crossval_pairs(releases, folds=3, seed=4)
    assert len(pairs) == 3
    tested = sorted(r.key for p in pairs for r in p.test)
    assert tested == [I2008, J2009, K2010]
    for pair in pairs:
        assert pair.spec.kind is ConfigurationKind.CROSSVAL
        assert pair.spec.window_k is None
        assert len(pair.train) == 2


def test_crossval_is_seed_deterministic_and_seed_sensitive():
    rng = random.Random(41)
    releases = [simple_release(f"p{i}", "1", date(2001 + i, 1, 1), rng=rng)
                for i in range(9)]
    a = [pair_as_tuple(p) for p in crossval_pairs(releases, 3, seed=1)]
    b = [pair_as_tuple(p) for p in crossval_pairs(releases, 3, seed=1)]
    assert a == b
    c = [pair_as_tuple(p) for p in crossval_pairs(releases, 3, seed=2)]
    assert a != c


def test_crossval_fold_validation():
    releases = toy_three_buckets()
    with pytest.raises(ConfigError):
        crossval_pairs(releases, folds=1, seed=0)
    with pytest.raises(ConfigError):
        crossval_pairs(releases, folds=4, seed=0)


def test_crossval_filters_shared_projects():
    releases = [
        simple_release("a", "1", date(2001, 1, 1)),
        simple_release("a", "2", date(2002, 1, 1)),
        simple_release("a", "3", date(2003, 1, 1)),
        simple_release("b", "1", date(2004, 1, 1)),
    ]
    pairs = crossval_pairs(releases, folds=4, seed=0)
    # any fold testing an "a" release trains on another "a" release
    tested = [r.key for p in pairs for r in p.test]
    assert tested == [("b", "1")]
