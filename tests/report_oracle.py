"""Reference record path: one object per results.csv row, and reports from them.

A ``ResultRecord`` is one results.csv row: the tag of a (pair,
technique) combination followed by the flat VersionScore of one test
version. ``write_results_csv`` and ``load_results_csv`` write and read
a whole file of records; ``blocks_of`` gives the
``timeaware_cpdp.stability.ResultBlock``s the program holds for the
same rows.

Every report here is rebuilt from the full record list: ranks.csv and
comparisons.csv filter the records again for each kind, technique and
metric, and per-cell and per-(technique, kind) means are computed once
per report; p-values and deltas come from stats_oracle.py. Sums run
left to right from 0.0 in a plain loop. ``tests/test_report_oracle.py``
checks that ``timeaware_cpdp.stability.write_reports`` writes the same
bytes.
"""

from __future__ import annotations

import csv
import logging
import math
from itertools import groupby
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from stats_oracle import cliffs_delta, wilcoxon_rank_sum
from timeaware_cpdp.errors import ConfigError, DatasetError
from timeaware_cpdp.metrics import VersionScore
from timeaware_cpdp.pairs import ConfigurationKind
from timeaware_cpdp.stability import (_PARSERS, RANK_METRICS, RESULTS_COLUMNS,
                                      RESULTS_HEADER, SCORES,
                                      STABILITY_THRESHOLD, ResultBlock,
                                      StabilityRow, _csv_field,
                                      rank_techniques)

logger = logging.getLogger(__name__)

ResultRecord = NamedTuple("ResultRecord", [
    ("technique", str), ("kind", str), ("window_k", int | None),
    ("split_index", int), ("gap", int), *VersionScore.__annotations__.items()])


def write_results_csv(path: Path, records: Sequence[ResultRecord]) -> None:
    """Write records as results.csv, one line each, columns in field order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in records:
            fh.write(f"{_csv_field(r[0])},{_csv_field(r[1])},"
                     f"{'inf' if r[2] is None else r[2]},{r[3]},{r[4]},"
                     f"{_csv_field(r[5])},{_csv_field(r[6])},"
                     f"{r[7]},{r[8]},{r[9]},{r[10]},{r[11]!r},{r[12]!r},"
                     f"{r[13]!r},{r[14]!r},{r[15]!r},{r[16]!r},"
                     f"{'true' if r[17] else 'false'}\n")


def load_results_csv(path: Path) -> list[ResultRecord]:
    """Records of a results.csv; a malformed row raises DatasetError."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(RESULTS_COLUMNS):
                raise DatasetError(f"{path}: unexpected results header")
            records = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(_PARSERS):
                    raise ValueError(f"expected {len(_PARSERS)} fields")
                fields = []
                for column, parse, text in zip(RESULTS_COLUMNS, _PARSERS, row):
                    try:
                        fields.append(parse(text))
                    except ValueError as exc:
                        raise ValueError(f"{exc} (column {column})") from None
                records.append(ResultRecord._make(fields))
        except (ValueError, csv.Error) as exc:
            raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def blocks_of(records: Sequence[ResultRecord]) -> list[ResultBlock]:
    """One ResultBlock per run of consecutive records under one tag."""
    return [ResultBlock(*tag, np.array(
                [tuple(getattr(r, name) for name in SCORES.names) for r in run],
                dtype=SCORES))
            for tag, run in groupby(records, key=lambda r: r[:5])]


def comparable(blocks: Sequence[ResultBlock]) -> list[tuple]:
    """Blocks as tuples that == compares, -0.0 told from 0.0."""
    return [(*block[:5], block.scores.dtype, block.scores.tobytes())
            for block in blocks]


def _sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_window(window_k: int | None) -> str:
    return "inf" if window_k is None else str(window_k)


def _metric_values(records: Sequence[ResultRecord], metric: str) -> tuple[list[float], int]:
    if metric == "auc":
        vals = [r.auc for r in records if not r.auc_degenerate]
        return vals, len(records) - len(vals)
    return [getattr(r, metric) for r in records], 0


def _mean_sd(values: Sequence[float]) -> tuple[float, float, bool]:
    n = len(values)
    mean = _sum(values) / n
    if n == 1:
        return mean, 0.0, True
    var = _sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var), False


def aggregate(records: Sequence[ResultRecord],
              by_window: bool = False,
              threshold: float = STABILITY_THRESHOLD) -> list[StabilityRow]:
    groups: dict[tuple, list[ResultRecord]] = {}
    for r in records:
        key = (r.technique, r.kind, r.window_k) if by_window else (r.technique, r.kind)
        groups.setdefault(key, []).append(r)

    rows = []
    for key, group in groups.items():
        window = key[2] if by_window else None
        for metric in RANK_METRICS:
            values, excluded = _metric_values(group, metric)
            if not values:
                rows.append(StabilityRow(
                    technique=key[0], kind=key[1], window_k=window,
                    metric=metric, n=0, excluded=excluded,
                    mean=None, sd=None, stable=None))
                continue
            mean, sd, _ = _mean_sd(values)
            rows.append(StabilityRow(
                technique=key[0], kind=key[1], window_k=window,
                metric=metric, n=len(values), excluded=excluded,
                mean=mean, sd=sd, stable=sd < threshold))
    return rows


def rank_stability(records: Sequence[ResultRecord], kind: str,
                   metrics: Sequence[str] = RANK_METRICS) -> dict[str, float]:
    kind_records = [r for r in records if r.kind == kind]
    techniques = list(dict.fromkeys(r.technique for r in kind_records))
    if len(techniques) < 2:
        raise ConfigError("rank stability needs at least 2 techniques")

    cells: dict[tuple, dict[str, list[ResultRecord]]] = {}
    for r in kind_records:
        cell = cells.setdefault((r.window_k, r.split_index), {})
        cell.setdefault(r.technique, []).append(r)

    per_tech_ranks: dict[str, list[int]] = {t: [] for t in techniques}
    for cell_key in sorted(cells, key=lambda c: (c[0] is None, c[0], c[1])):
        cell = cells[cell_key]
        if set(cell) != set(techniques):
            continue
        usable_metrics = []
        cell_values: dict[str, dict[str, float]] = {t: {} for t in techniques}
        for metric in metrics:
            ok = True
            for tech in techniques:
                vals, _ = _metric_values(cell[tech], metric)
                if not vals:
                    ok = False
                    break
                cell_values[tech][metric] = _sum(vals) / len(vals)
            if ok:
                usable_metrics.append(metric)
        if not usable_metrics:
            continue
        for row in rank_techniques(cell_values, metrics=usable_metrics):
            per_tech_ranks[row.technique].append(row.rank)

    out = {}
    for tech in techniques:
        ranks = per_tech_ranks[tech]
        if len(ranks) < 2:
            out[tech] = 0.0
        else:
            _, sd, _ = _mean_sd([float(r) for r in ranks])
            out[tech] = sd
    return out


def write_reports(records: Sequence[ResultRecord], out_dir: Path,
                  stability_threshold: float = 0.05) -> None:
    out_dir = Path(out_dir)
    _write_stability(out_dir / "stability.csv", records, stability_threshold)
    _write_ranks(out_dir / "ranks.csv", records)
    _write_comparisons(out_dir / "comparisons.csv", records)
    _write_plotdata(out_dir / "plotdata.csv", records)


def _write_stability(path: Path, records, threshold: float) -> None:
    rows = aggregate(records, by_window=False, threshold=threshold)
    # a group without a window (II, crossval) has only its overall row
    rows += [row for row in aggregate(records, by_window=True,
                                      threshold=threshold)
             if row.window_k is not None]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("technique,kind,window_k,metric,n,excluded,mean,sd,stable\n")
        for row in rows:
            window = "" if row.window_k is None else _fmt_window(row.window_k)
            fh.write(f"{row.technique},{row.kind},{window},{row.metric},"
                     f"{row.n},{row.excluded},{_fmt(row.mean)},{_fmt(row.sd)},"
                     f"{_fmt(row.stable)}\n")


def _kind_order(records) -> list[str]:
    return list(dict.fromkeys(r.kind for r in records))


def _technique_order(records) -> list[str]:
    return list(dict.fromkeys(r.technique for r in records))


def _write_ranks(path: Path, records) -> None:
    kinds = _kind_order(records)
    techniques = _technique_order(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("kind,technique,rankscore_fscore,rankscore_auc,rankscore_mcc,"
                 "rankscore_gmeasure,mean_rank_score,rank,rank_sd\n")
        if len(techniques) < 2:
            return
        for kind in kinds:
            kind_records = [r for r in records if r.kind == kind]
            values: dict[str, dict[str, float]] = {}
            for tech in techniques:
                tech_records = [r for r in kind_records if r.technique == tech]
                per_metric = {}
                for metric in RANK_METRICS:
                    vals = [getattr(r, metric) for r in tech_records
                            if not (metric == "auc" and r.auc_degenerate)]
                    if vals:
                        per_metric[metric] = _sum(vals) / len(vals)
                if len(per_metric) == len(RANK_METRICS):
                    values[tech] = per_metric
            if len(values) < 2:
                logger.warning("ranks for %s skipped: fewer than 2 techniques "
                               "with complete metrics", kind)
                continue
            sd_by_tech = rank_stability(records, kind)
            for row in rank_techniques(values):
                rs = dict(zip(RANK_METRICS, row.rankscores))
                fh.write(f"{kind},{row.technique},{_fmt(rs['fscore'])},"
                         f"{_fmt(rs['auc'])},{_fmt(rs['mcc'])},"
                         f"{_fmt(rs['gmeasure'])},{_fmt(row.mean_rank_score)},"
                         f"{row.rank},{_fmt(sd_by_tech.get(row.technique))}\n")


def _write_comparisons(path: Path, records) -> None:
    baseline_kind = ConfigurationKind.CROSSVAL.value
    baseline = [r for r in records if r.kind == baseline_kind]
    time_aware = [r for r in records if r.kind != baseline_kind]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("technique,metric,p_value,cliffs_delta,magnitude\n")
        if not baseline or not time_aware:
            return
        for tech in _technique_order(records):
            for metric in RANK_METRICS:
                a, _ = _metric_values(
                    [r for r in time_aware if r.technique == tech], metric)
                b, _ = _metric_values(
                    [r for r in baseline if r.technique == tech], metric)
                if not a or not b:
                    continue
                p = wilcoxon_rank_sum(a, b)
                delta, label = cliffs_delta(a, b)
                fh.write(f"{tech},{metric},{_fmt(p)},{_fmt(delta)},{label}\n")


def _write_plotdata(path: Path, records) -> None:
    cells: dict[tuple, list[ResultRecord]] = {}
    for r in records:
        cells.setdefault((r.technique, r.kind, r.window_k, r.split_index),
                         []).append(r)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("technique,kind,window_k,split_index,metric,value\n")
        for (tech, kind, window, split), group in cells.items():
            for metric in RANK_METRICS:
                vals = [getattr(r, metric) for r in group
                        if not (metric == "auc" and r.auc_degenerate)]
                if not vals:
                    continue
                mean = _sum(vals) / len(vals)
                fh.write(f"{tech},{kind},{_fmt_window(window)},{split},"
                         f"{metric},{_fmt(mean)}\n")
