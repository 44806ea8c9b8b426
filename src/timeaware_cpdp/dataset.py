"""Class-level defect data with dated releases, and its time bucketing.

A dataset is a list of releases. Each release is one (project, version)
pair with a release date and one record per class/file: its attribute
values and whether it is defective. Releases are laid out on a timeline
of fixed-width calendar-month buckets; the bucket grid is anchored at
the first day of the month of the earliest release and always covers
the latest release. Buckets with no releases are kept so that bucket
indices stay aligned with calendar time.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import ConflictError, DatasetError, EmptyDatasetError, ParseError

# ASCII digits only: date.fromisoformat alone takes more forms on 3.11+
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@dataclass(frozen=True)
class DatasetSchema:
    """Column names that map a CSV file onto the record fields.

    feature_cols None means: every column that is not one of the five
    identity columns is a feature, in header order.
    """

    project_col: str = "project"
    version_col: str = "version"
    date_col: str = "release_date"
    class_col: str = "class"
    defects_col: str = "defects"
    feature_cols: tuple[str, ...] | None = None


# eq=False: records is an array, which dataclass equality cannot compare
@dataclass(frozen=True, eq=False)
class Release:
    """All classes of one (project, version) at its release date.

    records is a read-only structured array, one row per class in
    source order. Its field "features" holds the row's float64 attribute
    values and "defective" is True iff at least one defect was recorded.
    Its scalar type is np.record, so each row also reads as rec.defective.
    """

    project_id: str
    version_id: str
    release_date: date
    records: np.ndarray

    @property
    def key(self) -> tuple[str, str]:
        return (self.project_id, self.version_id)

    def __len__(self) -> int:
        return len(self.records)


def release_order(rel: Release) -> tuple[date, str, str]:
    """The one order of releases: by date, then project, then version."""
    return (rel.release_date, rel.project_id, rel.version_id)


@dataclass(frozen=True)
class TimeBucket:
    """Half-open interval [start, end) of calendar time."""

    index: int
    start: date
    end: date
    releases: tuple[Release, ...]


@dataclass(frozen=True)
class TimeSeriesDataset:
    buckets: tuple[TimeBucket, ...]
    granularity_months: int

    @property
    def bucket_count(self) -> int:
        return len(self.buckets)

    def bucket_index(self, when: date) -> int:
        """Bucket index containing the given date; raises if outside grid."""
        first = self.buckets[0].start
        if when < first or when >= self.buckets[-1].end:
            raise ValueError(f"date {when} outside the bucket grid")
        return _month_index(when, first) // self.granularity_months


@dataclass(frozen=True)
class BucketSummary:
    bucket_index: int
    start: date
    end: date
    releases: int
    instances: int
    defective_pct: float


def month_start(d: date) -> date:
    return date(d.year, d.month, 1)


def add_months(first_of_month: date, months: int) -> date:
    """Shift a first-of-month date by a number of calendar months."""
    m = first_of_month.month - 1 + months
    return date(first_of_month.year + m // 12, m % 12 + 1, 1)


def _month_index(d: date, anchor: date) -> int:
    return (d.year - anchor.year) * 12 + (d.month - anchor.month)


def _rows(reader) -> Iterator[list[str]]:
    """reader's rows; a csv.Error becomes a ParseError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def ascii_number(kind: type, text: str) -> int | float:
    """kind(text), kind int or float, or ValueError unless text is ASCII
    without "_": int and float alone take other scripts' digits and "_"."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def parse_dataset(source: str | IO[str] | Iterable[str],
                  schema: DatasetSchema | None = None) -> list[Release]:
    """Parse CSV text into releases.

    The file must have a header row naming at least the five identity
    columns of the schema. Every data row becomes one row of its
    release's record array; rows sharing (project, version) form one
    release and must agree on the release date. The class column must be
    present but is not kept. Releases are returned in release_order;
    records keep their source order within a release.

    Raises ParseError (with a line number) for malformed content, such
    as a field longer than the csv module's limit, a number that is not
    ASCII or has a "_", a header that names a column twice, two identity
    roles of the schema naming one column, or a feature_cols entry that
    is repeated or is an identity column;
    ConflictError, a ParseError, for contradictory release dates; and
    EmptyDatasetError when there are no data rows.
    """
    schema = schema or DatasetSchema()
    if isinstance(source, str):
        source = io.StringIO(source)
    csv_reader = csv.reader(source)
    reader = _rows(csv_reader)

    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDatasetError("dataset has no content") from None
    header = [h.strip() for h in header]
    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        if positions.setdefault(name, i) != i:
            raise ParseError(f"column {name!r} appears twice in the header",
                             line=1)

    roles = ("project_col", "version_col", "date_col", "class_col",
             "defects_col")
    identity_cols = tuple(getattr(schema, role) for role in roles)
    for i, col in enumerate(identity_cols):
        first = identity_cols.index(col)
        if first != i:
            raise ParseError(f"{roles[first]} and {roles[i]} both name "
                             f"column {col!r}", line=1)
    if schema.feature_cols is not None:
        feature_cols = schema.feature_cols
        for i, col in enumerate(feature_cols):
            if col in identity_cols:
                raise ParseError(
                    f"feature column {col!r} is an identity column", line=1)
            if col in feature_cols[:i]:
                raise ParseError(f"feature column {col!r} is listed twice",
                                 line=1)
    else:
        feature_cols = tuple(c for c in header if c not in identity_cols)
    missing = [c for c in (*identity_cols, *feature_cols) if c not in positions]
    if missing:
        raise ParseError(f"missing columns: {', '.join(missing)}", line=1)
    if not feature_cols:
        raise ParseError("no feature columns", line=1)
    feature_pos = [positions[c] for c in feature_cols]

    # per release, its date and its rows' feature values and defect flags
    groups: dict[tuple[str, str], tuple[date, list, list]] = {}
    for row in reader:
        if not row:
            continue
        # the physical line the row ends on: a quoted cell can hold a newline
        line_no = csv_reader.line_num
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, found {len(row)}", line=line_no)
        project = row[positions[schema.project_col]].strip()
        version = row[positions[schema.version_col]].strip()
        raw_date = row[positions[schema.date_col]].strip()
        raw_defects = row[positions[schema.defects_col]].strip()
        if not project or not version:
            raise ParseError("empty project or version identifier", line=line_no)
        try:
            if not _ISO_DATE.fullmatch(raw_date):
                raise ValueError(raw_date)
            released = date.fromisoformat(raw_date)
        except ValueError:
            raise ParseError(
                f"column {schema.date_col!r}: not an ISO date: {raw_date!r}",
                line=line_no) from None
        try:
            defect_count = ascii_number(int, raw_defects)
        except ValueError:
            raise ParseError(
                f"column {schema.defects_col!r}: not an integer: {raw_defects!r}",
                line=line_no) from None
        if defect_count < 0:
            raise ParseError(
                f"column {schema.defects_col!r}: negative defect count",
                line=line_no)
        features = []
        for col, pos in zip(feature_cols, feature_pos):
            raw = row[pos].strip()
            try:
                value = ascii_number(float, raw)
            except ValueError:
                raise ParseError(
                    f"column {col!r}: not a number: {raw!r}", line=line_no) from None
            if value != value or value in (float("inf"), float("-inf")):
                raise ParseError(
                    f"column {col!r}: non-finite value", line=line_no)
            features.append(value)

        first, rows, labels = groups.setdefault((project, version),
                                                (released, [], []))
        if first != released:
            raise ConflictError(
                f"release {project}/{version} has conflicting dates "
                f"{first} and {released}", line=line_no)
        rows.append(features)
        labels.append(defect_count > 0)

    if not groups:
        raise EmptyDatasetError("dataset has a header but no data rows")

    dtype = np.dtype((np.record, [
        ("features", np.float64, (len(feature_cols),)), ("defective", bool)]))
    releases = []
    for (project, version), (released, rows, labels) in groups.items():
        records = np.empty(len(rows), dtype)
        records["features"] = rows
        records["defective"] = labels
        records.flags.writeable = False
        releases.append(Release(project_id=project, version_id=version,
                                release_date=released,
                                records=records))
    releases.sort(key=release_order)
    return releases


def bucketize(releases: Iterable[Release],
              granularity_months: int = 6) -> TimeSeriesDataset:
    """Lay releases out on a contiguous grid of calendar-month buckets.

    Bucket 0 starts on the first day of the month of the earliest
    release; every bucket spans exactly granularity_months months and
    bucket[i].end == bucket[i+1].start. Buckets without releases are
    materialized. Releases inside a bucket are in release_order, so the
    grid is independent of input order.
    """
    releases = list(releases)
    if granularity_months < 1:
        raise ValueError("granularity_months must be >= 1")
    if not releases:
        raise EmptyDatasetError("cannot bucketize zero releases")

    releases.sort(key=release_order)
    anchor = month_start(releases[0].release_date)
    last = releases[-1].release_date
    count = _month_index(last, anchor) // granularity_months + 1
    end_year = anchor.year + (anchor.month - 1 + count * granularity_months) // 12
    if end_year > date.max.year:
        raise DatasetError(
            f"{granularity_months}-month buckets up to the last release date "
            f"{last} end after {date.max}")

    grouped: list[list[Release]] = [[] for _ in range(count)]
    for rel in releases:
        grouped[_month_index(rel.release_date, anchor) // granularity_months].append(rel)

    buckets = tuple(
        TimeBucket(index=i,
                   start=add_months(anchor, i * granularity_months),
                   end=add_months(anchor, (i + 1) * granularity_months),
                   releases=tuple(grouped[i]))
        for i in range(count)
    )
    return TimeSeriesDataset(buckets=buckets, granularity_months=granularity_months)


def dataset_summary(ts: TimeSeriesDataset) -> list[BucketSummary]:
    """Per-bucket release/instance counts and defective percentage."""
    rows = []
    for bucket in ts.buckets:
        instances = sum(len(r) for r in bucket.releases)
        defective = sum(int(np.count_nonzero(r.records["defective"]))
                        for r in bucket.releases)
        pct = 100.0 * defective / instances if instances else 0.0
        rows.append(BucketSummary(
            bucket_index=bucket.index, start=bucket.start, end=bucket.end,
            releases=len(bucket.releases), instances=instances,
            defective_pct=pct))
    return rows
