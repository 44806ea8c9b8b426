"""Conclusion-stability statistics, significance tests, and ranking.

Aggregation reports per-group mean and sample standard deviation
(n - 1 divisor) of F-score, AUC, MCC and G-measure; a group counts as
stable when its standard deviation stays below a threshold (default
0.05). Rows whose AUC was degenerate are excluded from AUC aggregation
only, and the exclusion is counted.

The rank-sum test enumerates the exact null distribution for small
samples and falls back to the tie-corrected normal approximation with
continuity correction otherwise. Effect sizes use Cliff's delta with
the conventional magnitude thresholds (negligible up to 0.147, small up
to 0.33, medium up to 0.474, large beyond); both rank the pooled samples once.

A ResultRecord is one row of results.csv: the tag of a (pair,
technique) combination followed by the flat VersionScore of one test
version. write_results_csv and load_results_csv write and read that
file, and every report is computed from a list of these records.

write_reports writes four CSV reports from a run's records, grouped on
a prefix of their tag: stability.csv, ranks.csv (with the SD of each
technique's per-cell rank), comparisons.csv (time-aware against the
cross-validation baseline) and plotdata.csv (per-cell metric means).
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import logging
import math
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import BalancingError, ConfigError, DatasetError
from .metrics import VersionScore
from .pairs import ConfigurationKind
from .treatments import TreatedPair

logger = logging.getLogger(__name__)

RANK_METRICS = ("fscore", "auc", "mcc", "gmeasure")
STABILITY_THRESHOLD = 0.05
# the rank-sum test is exact when neither sample is longer than this
RANK_SUM_EXACT_LIMIT = 10

MAGNITUDE_LEVELS = (0.147, 0.33, 0.474)
MAGNITUDE_NAMES = ("negligible", "small", "medium", "large")

UNBOUNDED = "inf"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_window(window_k: int | None) -> str:
    return UNBOUNDED if window_k is None else str(window_k)


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, quotes doubled, if it holds , " CR or LF.

    csv.writer with a "\\n" line terminator leaves a CR unquoted, and
    csv.reader then splits the row there.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(*fields) -> str:
    """One CSV line: text through _csv_field, every other value through _fmt."""
    return ",".join(_csv_field(f) if isinstance(f, str) else _fmt(f)
                    for f in fields) + "\n"


# one results.csv row, its columns in field order: the tag of a (pair,
# technique) combination, then the VersionScore of one test version
ResultRecord = NamedTuple("ResultRecord", [
    ("technique", str), ("kind", str), ("window_k", int | None),
    ("split_index", int), ("gap", int), *VersionScore.__annotations__.items()])
RESULTS_COLUMNS = ResultRecord._fields
RESULTS_HEADER = ",".join(RESULTS_COLUMNS)


def _parse_window(text: str) -> int | None:
    if text == UNBOUNDED:
        return None
    if (window := int(text)) < 1:
        raise ValueError(f"window {window} below 1")
    return window


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"auc_degenerate is not true or false: {text!r}")
    return text == "true"


def _non_negative(what: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        if (value := int(text)) < 0:
            raise ValueError(f"negative {what} {value}")
        return value
    return parse


def _parse_score(text: str) -> float:
    if not math.isfinite(score := float(text)):
        raise ValueError(f"non-finite score {text!r}")
    return score


# how each results.csv column is read back
_PARSERS = (str, str, _parse_window, _non_negative("split"),
            _non_negative("gap"), str, str, *[_non_negative("count")] * 4,
            *[_parse_score] * 6, _parse_bool)


def write_results_csv(path: Path, records: Sequence[ResultRecord]) -> None:
    """Write records as results.csv, one line each, columns in field order.

    Each line is _csv_line of the record with the window spelled "inf".
    One f-string per row: a formatter call per cell, or csv.writer,
    took ~25 % longer.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in records:
            fh.write(f"{_csv_field(r[0])},{_csv_field(r[1])},"
                     f"{UNBOUNDED if r[2] is None else r[2]},{r[3]},{r[4]},"
                     f"{_csv_field(r[5])},{_csv_field(r[6])},"
                     f"{r[7]},{r[8]},{r[9]},{r[10]},{r[11]!r},{r[12]!r},"
                     f"{r[13]!r},{r[14]!r},{r[15]!r},{r[16]!r},"
                     f"{'true' if r[17] else 'false'}\n")


def load_results_csv(path: Path) -> list[ResultRecord]:
    """Records of a results.csv; a malformed row raises DatasetError.

    A field that does not parse, a window below 1, a negative split,
    gap or confusion count, or a non-finite score is named by its line
    and column. A leading UTF-8 byte-order mark is skipped.
    """
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


@dataclass(frozen=True)
class StabilityRow:
    technique: str
    kind: str
    window_k: int | None
    metric: str
    n: int
    excluded: int
    mean: float | None
    sd: float | None
    stable: bool | None


@dataclass(frozen=True)
class RankRow:
    technique: str
    rankscores: tuple[float, ...]
    mean_rank_score: float
    rank: int


def _group(records: Sequence[ResultRecord],
           width: int) -> dict[tuple, list[ResultRecord]]:
    """Records grouped by (technique, kind, window, split)[:width], all in record order."""
    groups: dict[tuple, list[ResultRecord]] = {}
    for r in records:
        groups.setdefault(r[:width], []).append(r)
    return groups


def _metric_values(records: Sequence[ResultRecord], metric: str) -> tuple[list[float], int]:
    """Values of one metric, AUC filtered of degenerate rows; returns (values, excluded)."""
    if metric == "auc":
        vals = [r.auc for r in records if not r.auc_degenerate]
        return vals, len(records) - len(vals)
    return [getattr(r, metric) for r in records], 0


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def aggregate(records: Sequence[ResultRecord],
              by_window: bool = False,
              threshold: float = STABILITY_THRESHOLD) -> list[StabilityRow]:
    """Mean/SD stability rows grouped by (technique, kind[, window]).

    Groups follow first appearance order in the input; by_window skips
    the groups without a window (II, crossval). A single-value group
    reports SD 0 (so it counts as stable) and n 1. Groups whose AUC
    values were all degenerate report no AUC mean at all.
    """
    rows = []
    for key, group in _group(records, 3 if by_window else 2).items():
        window = key[2] if by_window else None
        if by_window and window is None:
            continue
        for metric in RANK_METRICS:
            values, excluded = _metric_values(group, metric)
            mean, sd = _mean_sd(values) if values else (None, None)
            rows.append(StabilityRow(
                technique=key[0], kind=key[1], window_k=window,
                metric=metric, n=len(values), excluded=excluded,
                mean=mean, sd=sd, stable=None if sd is None else sd < threshold))
    return rows


def _pooled_ranks(a: Sequence[float],
                  b: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Midrank of each value of a, then of b, in the pooled sample; and tie group sizes.

    A value's midrank is (values below it) + (tie size + 1) / 2.
    """
    if not len(a) or not len(b):
        raise ValueError("both samples must be non-empty")
    _, group, counts = np.unique(np.array([*a, *b], dtype=np.float64),
                                 return_inverse=True, return_counts=True)
    return (counts.cumsum() - (counts - 1) / 2.0)[group], counts


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided rank-sum test p-value.

    W sums a's pooled midranks. Both samples at most RANK_SUM_EXACT_LIMIT
    long: W's null distribution is enumerated exactly over all assignments
    of the pooled midranks (so ties are handled). Larger samples use the
    normal approximation with the pooled tie group sizes' correction and a
    0.5 continuity correction. Two samples of one value give p = 1.0.
    """
    ranks, ties = _pooled_ranks(a, b)
    if len(ties) == 1:
        return 1.0
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    w_obs = float(ranks[:n_a].sum())

    if n_a <= RANK_SUM_EXACT_LIMIT and n_b <= RANK_SUM_EXACT_LIMIT:
        rank_list = ranks.tolist()
        total = comb(n, n_a)
        count_le = count_ge = 0
        for idx in combinations(range(n), n_a):
            s = sum(rank_list[i] for i in idx)
            if s <= w_obs + 1e-9:
                count_le += 1
            if s >= w_obs - 1e-9:
                count_ge += 1
        return min(1.0, 2.0 * min(count_le, count_ge) / total)

    mu = n_a * (n + 1) / 2.0
    tie_term = float(((ties ** 3) - ties).sum())
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    diff = w_obs - mu
    if abs(diff) <= 0.5:
        z = 0.0
    else:
        z = (diff - math.copysign(0.5, diff)) / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def magnitude_label(delta: float) -> str:
    """Conventional magnitude word for a Cliff's delta value."""
    return MAGNITUDE_NAMES[bisect.bisect_left(MAGNITUDE_LEVELS, abs(delta))]


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> tuple[float, str]:
    """Cliff's delta of a over b and its magnitude label.

    delta = (#(a > b) - #(a < b)) / (|a| * |b|), in [-1, 1]; the numerator
    is 2 R_a - |a| (|a| + 1) - |a| |b|, R_a the sum of a's pooled midranks.
    """
    ranks, _ = _pooled_ranks(a, b)
    n_a, n_b = len(a), len(b)
    delta = ((2.0 * float(ranks[:n_a].sum()) - n_a * (n_a + 1) - n_a * n_b)
             / (n_a * n_b))
    return delta, magnitude_label(delta)


def rankscores(values_by_technique: Mapping[str, float]) -> dict[str, float]:
    """Rank score of each technique on one metric, higher value is better.

    rankscore = 1 - (#techniques scoring strictly higher) / (#techniques - 1),
    so the best technique gets 1 and the worst 0; tied techniques share
    the same count of higher-ranked ones.
    """
    if len(values_by_technique) < 2:
        raise ConfigError("ranking needs at least 2 techniques")
    items = list(values_by_technique.items())
    n = len(items)
    out = {}
    for tech, value in items:
        higher = sum(1 for _, other in items if other > value)
        out[tech] = 1.0 - higher / (n - 1)
    return out


def rank_techniques(values: Mapping[str, Mapping[str, float]],
                    metrics: Sequence[str] = RANK_METRICS) -> list[RankRow]:
    """Combined ranking over several metrics.

    values maps technique -> metric -> score (higher is better for every
    metric used here). The mean of the per-metric rank scores orders the
    techniques; integer ranks are competition style (ties share the
    better rank). Rows come back sorted by rank, then input order.
    A missing metric value is a configuration error.
    """
    techniques = list(values)
    if len(techniques) < 2:
        raise ConfigError("ranking needs at least 2 techniques")
    for tech in techniques:
        for metric in metrics:
            if metric not in values[tech]:
                raise ConfigError(f"technique {tech!r} has no {metric!r} value")

    per_metric = {m: rankscores({t: values[t][m] for t in techniques})
                  for m in metrics}
    mean_rs = {t: sum(per_metric[m][t] for m in metrics) / len(metrics)
               for t in techniques}
    rows = [RankRow(technique=tech,
                    rankscores=tuple(per_metric[m][tech] for m in metrics),
                    mean_rank_score=mean_rs[tech],
                    rank=1 + sum(1 for u in techniques if mean_rs[u] > mean_rs[tech]))
            for tech in techniques]
    # sorted is stable: techniques of equal rank keep their input order
    return sorted(rows, key=lambda row: row.rank)


def _cell_means(records: Sequence[ResultRecord]) -> dict[tuple, dict[str, float]]:
    """Means per (technique, kind, window, split) cell; a metric without values is left out."""
    out = {}
    for cell, group in _group(records, 4).items():
        means = {}
        for metric in RANK_METRICS:
            values, _ = _metric_values(group, metric)
            if values:
                means[metric] = sum(values) / len(values)
        out[cell] = means
    return out


def _rank_sds(cell_means: Mapping[tuple, Mapping[str, float]],
              kind: str) -> dict[str, float]:
    """SD of each technique's per-cell rank within one configuration.

    A cell is one (window, split). Cells that miss a technique or share
    no metric are skipped; with fewer than two usable cells the SD is 0.
    """
    cells: dict[tuple, dict[str, Mapping[str, float]]] = {}
    ranks: dict[str, list[int]] = {}
    for (tech, cell_kind, window, split), means in cell_means.items():
        if cell_kind == kind:
            cells.setdefault((window, split), {})[tech] = means
            ranks.setdefault(tech, [])

    for cell_key in sorted(cells, key=lambda c: (c[0] is None, c[0], c[1])):
        cell = cells[cell_key]
        if cell.keys() != ranks.keys():
            continue
        usable = [m for m in RANK_METRICS if all(m in v for v in cell.values())]
        if not usable:
            continue
        for row in rank_techniques(cell, metrics=usable):
            ranks[row.technique].append(row.rank)
    return {tech: _mean_sd([float(r) for r in tech_ranks])[1]
            if len(tech_ranks) > 1 else 0.0
            for tech, tech_ranks in ranks.items()}


def undersample(tp: TreatedPair, seed: int) -> TreatedPair:
    """Balance the training classes by shrinking the majority class.

    Majority-class instances are removed by seeded uniform sampling
    without replacement until both classes have equal counts. Weights of
    the survivors are preserved and row order is kept. A single-class
    training set cannot be balanced and raises BalancingError.
    """
    labels = tp.train_labels
    pos = np.flatnonzero(labels)
    neg = np.flatnonzero(~labels)
    if len(pos) == 0 or len(neg) == 0:
        raise BalancingError("single-class training set cannot be balanced")
    if len(pos) == len(neg):
        return tp

    minority, majority = (pos, neg) if len(pos) < len(neg) else (neg, pos)
    rng = random.Random(seed)
    kept_majority = rng.sample(list(majority), len(minority))
    keep = np.zeros(len(labels), dtype=bool)
    keep[minority] = True
    keep[kept_majority] = True

    return dataclasses.replace(
        tp,
        train_features=tp.train_features[keep],
        train_labels=labels[keep],
        train_weights=tp.train_weights[keep])


def write_reports(records: Sequence[ResultRecord], out_dir: Path,
                  stability_threshold: float = STABILITY_THRESHOLD) -> None:
    """Write stability.csv, ranks.csv, comparisons.csv and plotdata.csv.

    stability.csv has the overall rows, then the per-window rows of the
    windowed configurations; a group without a window (II, crossval)
    has only its overall row. plotdata.csv has the per-cell metric means
    in the layout of the variation figures.
    """
    out_dir = Path(out_dir)
    overall = aggregate(records, by_window=False, threshold=stability_threshold)
    per_window = aggregate(records, by_window=True, threshold=stability_threshold)
    cell_means = _cell_means(records)
    _write_csv(out_dir / "stability.csv",
               "technique,kind,window_k,metric,n,excluded,mean,sd,stable",
               (_csv_line(row.technique, row.kind, row.window_k, row.metric,
                          row.n, row.excluded, row.mean, row.sd, row.stable)
                for row in overall + per_window))
    _write_csv(out_dir / "ranks.csv",
               "kind,technique,rankscore_fscore,rankscore_auc,rankscore_mcc,"
               "rankscore_gmeasure,mean_rank_score,rank,rank_sd",
               _rank_lines(overall, cell_means))
    _write_csv(out_dir / "comparisons.csv",
               "technique,metric,p_value,cliffs_delta,magnitude",
               _comparison_lines(records))
    _write_csv(out_dir / "plotdata.csv",
               "technique,kind,window_k,split_index,metric,value",
               (_csv_line(tech, kind, _fmt_window(window), split, metric, mean)
                for (tech, kind, window, split), means in cell_means.items()
                for metric, mean in means.items()))


def _write_csv(path: Path, header: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _rank_lines(overall: Sequence[StabilityRow],
                cell_means: Mapping[tuple, Mapping[str, float]]) -> Iterator[str]:
    """Rank scores per kind; techniques enter in first-appearance order over all records."""
    techniques = list(dict.fromkeys(cell[0] for cell in cell_means))
    if len(techniques) < 2:
        return
    means: dict[tuple, dict[str, float]] = {}
    for row in overall:
        if row.mean is not None:
            means.setdefault((row.technique, row.kind), {})[row.metric] = row.mean
    for kind in dict.fromkeys(cell[1] for cell in cell_means):
        values = {t: means[t, kind] for t in techniques
                  if len(means.get((t, kind), ())) == len(RANK_METRICS)}
        if len(values) < 2:
            logger.warning("ranks for %s skipped: fewer than 2 techniques "
                           "with complete metrics", kind)
            continue
        sd_by_tech = _rank_sds(cell_means, kind)
        # the rank score columns follow RANK_METRICS
        for row in rank_techniques(values):
            yield _csv_line(kind, row.technique, *row.rankscores,
                            row.mean_rank_score, row.rank, sd_by_tech[row.technique])


def _comparison_lines(records: Sequence[ResultRecord]) -> Iterator[str]:
    """Time-aware configurations pooled against the cross-validation baseline."""
    baseline_kind = ConfigurationKind.CROSSVAL.value
    sides: dict[tuple, list[ResultRecord]] = {}
    for (tech, kind), group in _group(records, 2).items():
        sides.setdefault((tech, kind == baseline_kind), []).extend(group)
    for tech in dict.fromkeys(tech for tech, _ in sides):
        for metric in RANK_METRICS:
            a, _ = _metric_values(sides.get((tech, False), []), metric)
            b, _ = _metric_values(sides.get((tech, True), []), metric)
            if a and b:
                yield _csv_line(tech, metric, wilcoxon_rank_sum(a, b),
                                *cliffs_delta(a, b))
