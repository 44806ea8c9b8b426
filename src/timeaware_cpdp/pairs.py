"""Train/test pair enumeration over the bucket timeline.

Four time-aware configurations control how much history is trained on
and how much future is predicted, relative to a split point between two
buckets:

  CC  train on up to K buckets right before the split, test on up to K
      buckets starting at split + gap (both windows truncate at the
      dataset edges),
  IC  train on everything before the split, test on up to K buckets,
  CI  train on up to K buckets, test on everything from split + gap on,
  II  train on everything before, test on everything after the gap.

A gap of one bucket between training and test data keeps the test window
out of the training window's immediate future; gap 0 makes the windows
adjacent. Pairs whose test side shares a project with the training side
after filtering, or that have an empty side, are dropped. Duplicate
(train, test) set combinations arising from window truncation are kept
and stay distinguishable through their (window, split) tag; a run
computes each of them once and gives the results to every such tag.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .dataset import Release, TimeSeriesDataset
from .errors import ConfigError


class ConfigurationKind(enum.Enum):
    CC = "CC"
    IC = "IC"
    CI = "CI"
    II = "II"
    # baseline marker for release-level cross-validation pairs
    CROSSVAL = "crossval"


TIME_AWARE_KINDS = (
    ConfigurationKind.CC,
    ConfigurationKind.IC,
    ConfigurationKind.CI,
    ConfigurationKind.II,
)

_TRAIN_WINDOWED = (ConfigurationKind.CC, ConfigurationKind.CI)
_TEST_WINDOWED = (ConfigurationKind.CC, ConfigurationKind.IC)


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

    def __post_init__(self) -> None:
        if self.kind is ConfigurationKind.II or self.kind is ConfigurationKind.CROSSVAL:
            if self.window_k is not None:
                raise ValueError(f"{self.kind.value} windows are unbounded")
        elif self.window_k is None or self.window_k < 1:
            raise ValueError(f"{self.kind.value} requires a positive window")
        if self.split_index < 1 and self.kind is not ConfigurationKind.CROSSVAL:
            raise ValueError("split_index must be >= 1")
        if self.gap_buckets < 0:
            raise ValueError("gap_buckets must be >= 0")


@dataclass(frozen=True)
class TrainTestPair:
    spec: PairSpec
    train: tuple[Release, ...]
    test: tuple[Release, ...]


def window_sizes(kind: ConfigurationKind, bucket_count: int) -> list[int | None]:
    """Window values enumerated for a configuration on a given timeline.

    CC varies the window over 1..bucket_count, IC and CI over
    1..bucket_count - 1, II has the single unbounded window.
    """
    if kind is ConfigurationKind.CC:
        return list(range(1, bucket_count + 1))
    if kind in (ConfigurationKind.IC, ConfigurationKind.CI):
        return list(range(1, bucket_count))
    if kind is ConfigurationKind.II:
        return [None]
    raise ConfigError(f"not a time-aware configuration: {kind.value}")


def generate_pair(ts: TimeSeriesDataset, spec: PairSpec) -> TrainTestPair | None:
    """Collect the releases of one (window, split) combination.

    Returns None when either side holds no releases. No strict-CPDP
    filtering happens here; see strict_cpdp_filter.
    """
    if spec.kind not in TIME_AWARE_KINDS:
        raise ConfigError(f"not a time-aware configuration: {spec.kind.value}")
    count = ts.bucket_count
    if not 1 <= spec.split_index <= count - 1:
        raise ValueError(
            f"split_index {spec.split_index} outside 1..{count - 1}")

    split = spec.split_index
    gap = spec.gap_buckets
    if spec.kind in _TRAIN_WINDOWED:
        train_lo = max(0, split - spec.window_k)
    else:
        train_lo = 0
    test_lo = split + gap
    if spec.kind in _TEST_WINDOWED:
        test_hi = min(test_lo + spec.window_k, count)
    else:
        test_hi = count

    train = tuple(r for b in ts.buckets[train_lo:split] for r in b.releases)
    test = tuple(r for b in ts.buckets[test_lo:test_hi] for r in b.releases)
    if not train or not test:
        return None
    return TrainTestPair(spec=spec, train=train, test=test)


def strict_cpdp_filter(pair: TrainTestPair) -> TrainTestPair | None:
    """Drop test releases whose project also appears on the training side.

    Returns None when nothing remains to test, meaning the pair is
    discarded entirely.
    """
    train_projects = {r.project_id for r in pair.train}
    kept = tuple(r for r in pair.test if r.project_id not in train_projects)
    if not kept:
        return None
    return TrainTestPair(spec=pair.spec, train=pair.train, test=kept)


def enumerate_pairs(ts: TimeSeriesDataset, kind: ConfigurationKind,
                    gap_buckets: int = 1) -> list[TrainTestPair]:
    """All strict-CPDP pairs of a configuration, ascending window then split.

    Split points with an empty side are skipped silently, as are pairs
    that the strict-CPDP filter empties.
    """
    if gap_buckets < 0:
        raise ConfigError("gap_buckets must be >= 0")
    out = []
    for k in window_sizes(kind, ts.bucket_count):
        for split in range(1, ts.bucket_count):
            spec = PairSpec(kind=kind, window_k=k, split_index=split,
                            gap_buckets=gap_buckets)
            pair = generate_pair(ts, spec)
            if pair is None:
                continue
            pair = strict_cpdp_filter(pair)
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
            f"{folds} folds but only {len(releases)} releases")

    ordered = sorted(releases,
                     key=lambda r: (r.release_date, r.project_id, r.version_id))
    rng = random.Random(seed)
    rng.shuffle(ordered)

    base, extra = divmod(len(ordered), folds)
    chunks = []
    pos = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        chunks.append(ordered[pos:pos + size])
        pos += size

    out = []
    for i, test in enumerate(chunks):
        train = [r for j, c in enumerate(chunks) if j != i for r in c]
        spec = PairSpec(kind=ConfigurationKind.CROSSVAL, window_k=None,
                        split_index=i, gap_buckets=0)
        pair = strict_cpdp_filter(TrainTestPair(
            spec=spec, train=tuple(train), test=tuple(test)))
        if pair is not None:
            out.append(pair)
    return out
