#!/usr/bin/env python3
"""Prepare a release-dated dataset CSV from published defect data.

The experiment input format requires ISO-8601 dates. Published release
tables often carry dates like ``1999-Nov-08`` instead, and the class
metric files usually carry no dates at all. This script covers both
gaps:

    # normalize the date column of a single CSV
    python3 scripts/convert_release_dates.py --dates dates.csv --out fixed.csv

    # attach release dates to a class-level metrics CSV by project/version
    python3 scripts/convert_release_dates.py --dates dates.csv \
        --metrics classes.csv --out releases.csv

The dates file needs project, version, and date columns (names
configurable); every date starts with a four-digit year. In merge mode
every metrics row must find its (project, version) in the dates file.
In both files every row must have as many fields as the header, and no
header may name a column twice. On any error, an input that is missing
or not UTF-8 and an output path that is a directory included, the
script exits 1 with a one-line message and writes nothing: the output
is written beside its target and moved into place only when complete,
so an existing output file is left as it was. It needs only the standard
library, neither NumPy nor the timeaware_cpdp package.
"""

import argparse
import csv
import os
import sys
from datetime import date
from pathlib import Path

_MONTH_NAMES = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}


def convert_date_token(token: str) -> str:
    """Normalize a '1999-Nov-08' style date token to ISO 'YYYY-MM-DD'.

    ISO input passes through unchanged. The year comes first and has four
    ASCII digits, so a day-first token such as '15-Jul-02' is an error,
    not the year 15.
    """
    parts = token.strip().split("-")
    if len(parts) != 3:
        raise ValueError(f"unrecognized date token: {token!r}")
    year, month, day = parts
    if not (len(year) == 4 and year.isascii() and year.isdigit()):
        raise ValueError(f"year must have four digits: {token!r}")
    if month.isdigit():
        return date(int(year), int(month), int(day)).isoformat()
    try:
        month_no = _MONTH_NAMES[month.lower()[:3]]
    except KeyError:
        raise ValueError(f"unrecognized month in date token: {token!r}") from None
    return date(int(year), month_no, int(day)).isoformat()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dates", required=True, type=Path,
                        help="CSV holding project, version, and date columns")
    parser.add_argument("--metrics", type=Path, default=None,
                        help="optional class-level metrics CSV to join onto")
    parser.add_argument("--out", required=True, type=Path,
                        help="output CSV path")
    parser.add_argument("--project-col", default="project")
    parser.add_argument("--version-col", default="version")
    parser.add_argument("--date-col", default="release_date")
    return parser.parse_args(argv)


def read_rows(path: Path) -> tuple[list[str], list[dict[str, str]], list[int]]:
    """path's field names, its rows, and the line each row ends on.

    Blank lines are skipped. A header that names a column twice, or a
    row with more or fewer fields than the header, exits 1 naming its
    line; a file that cannot be opened or is not UTF-8 exits 1 naming it.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            fields = next(reader, None)
            if fields is None:
                raise SystemExit(f"{path}: empty file")
            for i, name in enumerate(fields):
                if name in fields[:i]:
                    raise SystemExit(f"{path} line {reader.line_num}: "
                                     f"column {name!r} appears twice")
            rows, lines = [], []
            for row in filter(None, reader):
                # physical lines: a quoted cell can hold a line break
                if len(row) != len(fields):
                    raise SystemExit(f"{path} line {reader.line_num}: "
                                     f"{len(row)} fields, header has "
                                     f"{len(fields)}")
                rows.append(dict(zip(fields, row)))
                lines.append(reader.line_num)
            return fields, rows, lines
    except csv.Error as exc:
        raise SystemExit(f"{path} line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise SystemExit(f"cannot read {path}: not UTF-8 text") from None


def write_rows(path: Path, fields: list[str], rows: list[dict[str, str]]) -> None:
    """Write path through a file beside it, moved into place when complete.

    A path that cannot be written, such as a directory, exits 1 naming it.
    """
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(partial, "x", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(rows)
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    args = parse_args(argv)
    date_fields, date_rows, date_lines = read_rows(args.dates)
    for col in (args.project_col, args.version_col, args.date_col):
        if col not in date_fields:
            raise SystemExit(f"{args.dates}: missing column {col!r}")

    dates: dict[tuple[str, str], str] = {}
    for line, row in zip(date_lines, date_rows):
        key = (row[args.project_col].strip(), row[args.version_col].strip())
        try:
            row[args.date_col] = iso = convert_date_token(row[args.date_col])
        except ValueError as exc:
            raise SystemExit(f"{args.dates} line {line}: {exc}")
        previous = dates.setdefault(key, iso)
        if previous != iso:
            raise SystemExit(f"{args.dates} line {line}: conflicting dates "
                             f"for {'/'.join(key)}: {previous} vs {iso}")

    if args.metrics is None:
        write_rows(args.out, date_fields, date_rows)
        print(f"wrote {args.out} ({len(date_rows)} rows, dates normalized)")
        return 0

    metric_fields, metric_rows, _ = read_rows(args.metrics)
    for col in (args.project_col, args.version_col):
        if col not in metric_fields:
            raise SystemExit(f"{args.metrics}: missing column {col!r}")
    out_fields = list(metric_fields)
    if args.date_col not in out_fields:
        out_fields.insert(2, args.date_col)

    keys = [(row[args.project_col].strip(), row[args.version_col].strip())
            for row in metric_rows]
    missing = set(keys) - dates.keys()
    if missing:
        listing = ", ".join("/".join(k) for k in sorted(missing))
        raise SystemExit(f"{args.metrics}: no release date for: {listing}")
    for row, key in zip(metric_rows, keys):
        row[args.date_col] = dates[key]
    write_rows(args.out, out_fields, metric_rows)
    print(f"wrote {args.out} ({len(metric_rows)} rows joined with dates)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
