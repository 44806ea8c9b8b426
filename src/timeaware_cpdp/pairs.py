"""Train/test pair enumeration over the bucket timeline.

A time-aware pair trains on the past of a split point and tests on its
future, never on a project that it trains on (strict cross-project
prediction, strict CPDP); enumerate_pairs states the window rule of the
four configurations.

Duplicate (train, test) set combinations arising from window truncation
are kept and stay distinguishable through their (window, split) tag; a
run computes each of them once and gives the results to every such tag.
crossval_pairs builds the time-ignoring cross-validation baseline.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .dataset import Release, TimeSeriesDataset, release_order
from .errors import ConfigError


class ConfigurationKind(enum.Enum):
    CC = "CC"
    IC = "IC"
    CI = "CI"
    II = "II"
    # baseline marker for release-level cross-validation pairs
    CROSSVAL = "crossval"


@dataclass(frozen=True)
class PairSpec:
    """Identifies one train/test pair: configuration, window, split, gap.

    window_k is None for unbounded windows (II and the crossval marker);
    split_index is the boundary between bucket split_index - 1 and
    bucket split_index (for crossval it holds the fold number).
    """

    kind: ConfigurationKind
    window_k: int | None
    split_index: int
    gap_buckets: int = 1


@dataclass(frozen=True)
class TrainTestPair:
    spec: PairSpec
    train: tuple[Release, ...]
    test: tuple[Release, ...]


def _strict_pair(spec: PairSpec, train: tuple[Release, ...],
                 test: tuple[Release, ...]) -> TrainTestPair | None:
    """Drop test releases of training projects; None if a side ends up empty."""
    train_projects = {r.project_id for r in train}
    test = tuple(r for r in test if r.project_id not in train_projects)
    if not train or not test:
        return None
    return TrainTestPair(spec=spec, train=train, test=test)


def enumerate_pairs(ts: TimeSeriesDataset, kind: ConfigurationKind,
                    gap_buckets: int = 1) -> list[TrainTestPair]:
    """All strict-CPDP pairs of a configuration, ascending window then split.

    At each split s in 1..n-1 of the n buckets, a window of K buckets
    bounds a side, truncated at the timeline's edges:

      CC  train on buckets s-K..s-1, test on s+gap..s+gap+K-1, K in 1..n,
      IC  train on 0..s-1, test on s+gap..s+gap+K-1, K in 1..n-1,
      CI  train on s-K..s-1, test on s+gap..n-1, K in 1..n-1,
      II  train on 0..s-1, test on s+gap..n-1, one unbounded window.

    Gap 0 makes the sides adjacent. Test releases whose project trains
    are dropped, and so is every pair left with an empty side.
    """
    if gap_buckets < 0:
        raise ConfigError("gap_buckets must be >= 0")
    count = ts.bucket_count
    if kind is ConfigurationKind.CC:
        windows: list[int | None] = list(range(1, count + 1))
    elif kind in (ConfigurationKind.IC, ConfigurationKind.CI):
        windows = list(range(1, count))
    elif kind is ConfigurationKind.II:
        windows = [None]
    else:
        raise ConfigError(f"not a time-aware configuration: {kind.value}")
    train_windowed = kind in (ConfigurationKind.CC, ConfigurationKind.CI)
    test_windowed = kind in (ConfigurationKind.CC, ConfigurationKind.IC)

    out = []
    for k in windows:
        for split in range(1, count):
            train_lo = max(0, split - k) if train_windowed else 0
            test_lo = split + gap_buckets
            test_hi = min(test_lo + k, count) if test_windowed else count
            pair = _strict_pair(
                PairSpec(kind=kind, window_k=k, split_index=split,
                         gap_buckets=gap_buckets),
                tuple(r for b in ts.buckets[train_lo:split] for r in b.releases),
                tuple(r for b in ts.buckets[test_lo:test_hi] for r in b.releases))
            if pair is not None:
                out.append(pair)
    return out


def crossval_pairs(releases: list[Release], folds: int,
                   seed: int) -> list[TrainTestPair]:
    """Release-level k-fold pairs, ignoring time, as an evaluation baseline.

    Releases are shuffled with the given seed and dealt into folds of
    near-equal size; each fold is tested once against a model trained on
    the others. Strict-CPDP filtering still applies, so a fold may be
    dropped when all of its projects occur on the training side.
    """
    if folds < 2:
        raise ConfigError("cross-validation needs at least 2 folds")
    if folds > len(releases):
        raise ConfigError(
            f"fold count {folds} exceeds the {len(releases)} releases")

    ordered = sorted(releases, key=release_order)
    rng = random.Random(seed)
    rng.shuffle(ordered)

    # fold i is ordered[bounds[i]:bounds[i + 1]]; the first extra are longer
    base, extra = divmod(len(ordered), folds)
    bounds = [i * base + min(i, extra) for i in range(folds + 1)]
    out = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        pair = _strict_pair(
            PairSpec(kind=ConfigurationKind.CROSSVAL, window_k=None,
                     split_index=i, gap_buckets=0),
            tuple(ordered[:lo] + ordered[hi:]), tuple(ordered[lo:hi]))
        if pair is not None:
            out.append(pair)
    return out
