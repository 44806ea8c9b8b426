"""The release representation the package used before record arrays.

Every parsed row became a frozen ``MetricRecord`` holding its class id,
a tuple of Python floats and its defect count; ``Release.arrays`` then
built the float64 feature matrix and bool label vector on first use.
``parse_dataset`` and ``dataset_summary`` are kept as they were, over
these types, so the record arrays must give the same release order,
keys and dates, bit-equal features, equal labels and an equal summary.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from typing import IO, Iterable

import numpy as np

from timeaware_cpdp.dataset import BucketSummary, DatasetSchema
from timeaware_cpdp.errors import ConflictError, EmptyDatasetError, ParseError

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@dataclass(frozen=True)
class MetricRecord:
    """One class of a release; the Release holds its project, version and date."""

    class_id: str
    features: tuple[float, ...]
    defect_count: int

    @property
    def defective(self) -> bool:
        return self.defect_count > 0


@dataclass(frozen=True)
class Release:
    """All records of one (project, version) at its release date."""

    project_id: str
    version_id: str
    release_date: date
    records: tuple[MetricRecord, ...]

    @property
    def key(self) -> tuple[str, str]:
        return (self.project_id, self.version_id)

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The records as a float64 feature matrix and a bool defect vector."""
        widths = sorted({len(rec.features) for rec in self.records})
        if len(widths) > 1:
            raise ValueError(f"inconsistent attribute counts: {widths}")
        features = np.array([rec.features for rec in self.records],
                            dtype=np.float64)
        labels = np.array([rec.defective for rec in self.records], dtype=bool)
        return features.reshape(len(self.records), *widths), labels


def parse_dataset(source: str | IO[str] | Iterable[str],
                  schema: DatasetSchema | None = None) -> list[Release]:
    """Parse CSV text into releases.

    The file must have a header row naming at least the five identity
    columns of the schema. Every data row becomes one MetricRecord; rows
    sharing (project, version) form one release and must agree on the
    release date. Releases are returned sorted by (date, project,
    version); records keep their source order within a release.

    Raises ParseError (with a line number) for malformed content, such
    as a header that names a column twice, two identity roles of the
    schema naming one column, or a feature_cols entry that is repeated
    or is an identity column; ConflictError, a ParseError,
    for contradictory release dates; and EmptyDatasetError when there
    are no data rows.
    """
    schema = schema or DatasetSchema()
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)

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

    groups: dict[tuple[str, str], list[MetricRecord]] = {}
    dates: dict[tuple[str, str], date] = {}
    row_count = 0
    for row in reader:
        if not row:
            continue
        line_no = reader.line_num
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, found {len(row)}", line=line_no)
        row_count += 1
        project = row[positions[schema.project_col]].strip()
        version = row[positions[schema.version_col]].strip()
        raw_date = row[positions[schema.date_col]].strip()
        class_id = row[positions[schema.class_col]].strip()
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
            defect_count = int(raw_defects)
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
                value = float(raw)
            except ValueError:
                raise ParseError(
                    f"column {col!r}: not a number: {raw!r}", line=line_no) from None
            if value != value or value in (float("inf"), float("-inf")):
                raise ParseError(
                    f"column {col!r}: non-finite value", line=line_no)
            features.append(value)

        key = (project, version)
        if key in dates and dates[key] != released:
            raise ConflictError(
                f"release {project}/{version} has conflicting dates "
                f"{dates[key]} and {released}", line=line_no)
        dates.setdefault(key, released)
        groups.setdefault(key, []).append(MetricRecord(
            class_id=class_id, features=tuple(features),
            defect_count=defect_count))

    if row_count == 0:
        raise EmptyDatasetError("dataset has a header but no data rows")

    releases = [
        Release(project_id=k[0], version_id=k[1], release_date=dates[k],
                records=tuple(recs))
        for k, recs in groups.items()
    ]
    releases.sort(key=lambda r: (r.release_date, r.project_id, r.version_id))
    return releases



def dataset_summary(ts: TimeSeriesDataset) -> list[BucketSummary]:
    """Per-bucket release/instance counts and defective percentage."""
    rows = []
    for bucket in ts.buckets:
        instances = sum(len(r) for r in bucket.releases)
        defective = sum(
            1 for r in bucket.releases for rec in r.records if rec.defective)
        pct = 100.0 * defective / instances if instances else 0.0
        rows.append(BucketSummary(
            bucket_index=bucket.index, start=bucket.start, end=bucket.end,
            releases=len(bucket.releases), instances=instances,
            defective_pct=pct))
    return rows
