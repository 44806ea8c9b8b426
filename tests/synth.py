"""Shared builders for synthetic datasets and an independent pair oracle."""

from __future__ import annotations

import random
from datetime import date, timedelta

import numpy as np

from timeaware_cpdp.dataset import (Release, TimeSeriesDataset, add_months,
                                    month_start)
from timeaware_cpdp.pairs import ConfigurationKind, TrainTestPair


def make_release(project: str, version: str, released: date,
                 rows: list[tuple[tuple[float, ...], bool]]) -> Release:
    """A release of the given (features, defective) rows, built as parse_dataset does."""
    width = len(rows[0][0])
    records = np.empty(len(rows), np.dtype((np.record, [
        ("features", np.float64, (width,)), ("defective", bool)])))
    records["features"] = [feats for feats, _ in rows]
    records["defective"] = [defective for _, defective in rows]
    records.flags.writeable = False
    return Release(project_id=project, version_id=version,
                   release_date=released, records=records)


def simple_release(project: str, version: str, released: date,
                   n_rows: int = 1, d: int = 2,
                   rng: random.Random | None = None) -> Release:
    rng = rng or random.Random(0)
    rows = [(tuple(rng.uniform(0, 10) for _ in range(d)), rng.random() < 0.4)
            for _ in range(n_rows)]
    if not any(defective for _, defective in rows):
        feats, _ = rows[0]
        rows[0] = (feats, True)
    return make_release(project, version, released, rows)


def csv_rows(releases: list[Release]) -> list[tuple[Release, str, np.record]]:
    """(release, class id, record) rows, release by release; ids C0, C1, ... per release."""
    return [(rel, f"C{i}", rec)
            for rel in releases for i, rec in enumerate(rel.records)]


def dataset_csv(rows: list[tuple[Release, str, np.record]]) -> str:
    """(release, class id, record) rows as a dataset CSV in the default schema, in list order."""
    width = len(rows[0][2].features)
    lines = ["project,version,release_date,class,defects,"
             + ",".join(f"f{i + 1}" for i in range(width))]
    lines += [",".join([rel.project_id, rel.version_id,
                        rel.release_date.isoformat(), class_id,
                        "1" if rec.defective else "0",
                        *map(repr, rec.features.tolist())])
              for rel, class_id, rec in rows]
    return "\n".join(lines) + "\n"


def toy_three_buckets() -> list[Release]:
    """One release per project per year: i-2008, j-2009, k-2010.

    With 12-month granularity the grid anchors at 2008-06-01 and each
    release falls into its own bucket.
    """
    rng = random.Random(7)
    return [
        simple_release("i", "2008", date(2008, 6, 10), n_rows=8, rng=rng),
        simple_release("j", "2009", date(2009, 6, 20), n_rows=8, rng=rng),
        simple_release("k", "2010", date(2010, 6, 15), n_rows=8, rng=rng),
    ]


def random_dataset(rng: random.Random) -> tuple[list[Release], int]:
    """Releases spanning 2..25 buckets over 1..8 projects; returns granularity."""
    granularity = rng.choice([1, 2, 3, 6, 12])
    bucket_target = rng.randint(2, 25)
    n_projects = rng.randint(1, 8)
    n_releases = rng.randint(2, 12)
    base = date(2000, rng.randint(1, 12), 1)

    offsets = [0, granularity * (bucket_target - 1)]
    offsets += [rng.randrange(granularity * bucket_target)
                for _ in range(n_releases - 2)]
    releases = []
    for i, off in enumerate(offsets):
        project = f"p{rng.randint(1, n_projects)}"
        released = add_months(month_start(base), off)
        released += timedelta(days=rng.randint(0, 27))
        releases.append(simple_release(project, f"v{i}", released, rng=rng))
    return releases, granularity


def oracle_bucket_index(ts: TimeSeriesDataset, release: Release) -> int:
    for bucket in ts.buckets:
        if bucket.start <= release.release_date < bucket.end:
            return bucket.index
    raise AssertionError(f"release {release.key} outside every bucket")


def oracle_pairs(ts: TimeSeriesDataset, kind: ConfigurationKind,
                 gap: int) -> list[tuple]:
    """First-principles enumeration from bucket membership and the invariants.

    Returns (window, split, train keys, test keys) tuples in the same
    order the implementation promises: ascending window, then split.
    """
    releases = [r for b in ts.buckets for r in b.releases]
    index_of = {r.key: oracle_bucket_index(ts, r) for r in releases}
    count = ts.bucket_count

    if kind is ConfigurationKind.CC:
        windows: list[int | None] = list(range(1, count + 1))
    elif kind in (ConfigurationKind.IC, ConfigurationKind.CI):
        windows = list(range(1, count))
    else:
        windows = [None]

    out = []
    for k in windows:
        for split in range(1, count):
            def in_train(i: int) -> bool:
                if kind in (ConfigurationKind.CC, ConfigurationKind.CI):
                    return split - k <= i < split
                return i < split

            def in_test(i: int) -> bool:
                if i < split + gap:
                    return False
                if kind in (ConfigurationKind.CC, ConfigurationKind.IC):
                    return i < split + gap + k
                return True

            train = [r for r in releases if in_train(index_of[r.key])]
            test = [r for r in releases if in_test(index_of[r.key])]
            if not train or not test:
                continue
            train_projects = {r.project_id for r in train}
            test = [r for r in test if r.project_id not in train_projects]
            if not test:
                continue
            out.append((k, split,
                        [r.key for r in train], [r.key for r in test]))
    return out


def pair_as_tuple(pair: TrainTestPair) -> tuple:
    return (pair.spec.window_k, pair.spec.split_index,
            [r.key for r in pair.train], [r.key for r in pair.test])
