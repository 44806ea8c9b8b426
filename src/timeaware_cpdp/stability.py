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
to 0.33, medium up to 0.474, large beyond).

write_reports writes four CSV reports from a run's records:
stability.csv, ranks.csv (with the SD of each technique's per-cell
rank), comparisons.csv (time-aware against the cross-validation
baseline) and plotdata.csv (per-cell metric means).
"""

from __future__ import annotations

import bisect
import dataclasses
import logging
import math
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BalancingError, ConfigError
from .metrics import ConfusionMatrix, ScoreSet, midranks
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


@dataclass(frozen=True)
class ResultRecord:
    """One row of experiment output: a technique scored on one version."""

    technique: str
    kind: str
    window_k: int | None
    split_index: int
    gap: int
    test_project: str
    test_version: str
    cm: ConfusionMatrix
    scores: ScoreSet
    auc_degenerate: bool


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
    single: bool


@dataclass(frozen=True)
class RankRow:
    technique: str
    rankscores: tuple[float, ...]
    mean_rank_score: float
    rank: int


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


def _group(records: Sequence[ResultRecord],
           key: Callable[[ResultRecord], tuple]) -> dict[tuple, list[ResultRecord]]:
    """Records grouped by key; groups and their members in record order."""
    groups: dict[tuple, list[ResultRecord]] = {}
    for r in records:
        groups.setdefault(key(r), []).append(r)
    return groups


def _metric_values(records: Sequence[ResultRecord], metric: str) -> tuple[list[float], int]:
    """Values of one metric, AUC filtered of degenerate rows; returns (values, excluded)."""
    if metric == "auc":
        vals = [r.scores.auc for r in records if not r.auc_degenerate]
        return vals, len(records) - len(vals)
    return [getattr(r.scores, metric) for r in records], 0


def _mean_sd(values: Sequence[float]) -> tuple[float, float, bool]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0, True
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var), False


def aggregate(records: Sequence[ResultRecord],
              by_window: bool = False,
              threshold: float = STABILITY_THRESHOLD) -> list[StabilityRow]:
    """Mean/SD stability rows grouped by (technique, kind[, window]).

    Groups follow first appearance order in the input. Single-value
    groups report SD 0 and are flagged. Groups whose AUC values were all
    degenerate report no AUC mean at all.
    """
    width = 3 if by_window else 2
    groups = _group(records, lambda r: (r.technique, r.kind, r.window_k)[:width])

    rows = []
    for key, group in groups.items():
        window = key[2] if by_window else None
        for metric in RANK_METRICS:
            values, excluded = _metric_values(group, metric)
            if not values:
                rows.append(StabilityRow(
                    technique=key[0], kind=key[1], window_k=window,
                    metric=metric, n=0, excluded=excluded,
                    mean=None, sd=None, stable=None, single=False))
                continue
            mean, sd, single = _mean_sd(values)
            rows.append(StabilityRow(
                technique=key[0], kind=key[1], window_k=window,
                metric=metric, n=len(values), excluded=excluded,
                mean=mean, sd=sd, stable=sd < threshold, single=single))
    return rows


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided rank-sum test p-value.

    Both samples at most RANK_SUM_EXACT_LIMIT long: the rank-sum null
    distribution is enumerated exactly over all assignments of the
    pooled values (midranks fixed, so ties are handled). Larger samples
    use the normal approximation with tie correction and a 0.5
    continuity correction. Two identical samples give p = 1.0.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    pooled = a + b
    if max(pooled) == min(pooled):
        return 1.0
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    ranks = midranks(pooled)
    w_obs = float(ranks[:n_a].sum())

    if n_a <= RANK_SUM_EXACT_LIMIT and n_b <= RANK_SUM_EXACT_LIMIT:
        rank_list = ranks.tolist()
        total = comb(n, n_a)
        count_le = 0
        count_ge = 0
        for idx in combinations(range(n), n_a):
            s = sum(rank_list[i] for i in idx)
            if s <= w_obs + 1e-9:
                count_le += 1
            if s >= w_obs - 1e-9:
                count_ge += 1
        return min(1.0, 2.0 * min(count_le, count_ge) / total)

    mu = n_a * (n + 1) / 2.0
    _, tie_counts = np.unique(np.asarray(pooled), return_counts=True)
    tie_term = float(((tie_counts ** 3) - tie_counts).sum())
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

    delta = (#(a > b) - #(a < b)) / (|a| * |b|), in [-1, 1].
    """
    if not len(a) or not len(b):
        raise ValueError("both samples must be non-empty")
    sb = sorted(float(v) for v in b)
    m = len(sb)
    greater = 0
    less = 0
    for v in a:
        v = float(v)
        greater += bisect.bisect_left(sb, v)
        less += m - bisect.bisect_right(sb, v)
    delta = (greater - less) / (len(a) * m)
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
    rows = []
    for i, tech in enumerate(techniques):
        rank = 1 + sum(1 for u in techniques if mean_rs[u] > mean_rs[tech])
        rows.append((rank, i, RankRow(
            technique=tech,
            rankscores=tuple(per_metric[m][tech] for m in metrics),
            mean_rank_score=mean_rs[tech],
            rank=rank)))
    rows.sort(key=lambda item: (item[0], item[1]))
    return [row for _, _, row in rows]


def _cell_means(records: Sequence[ResultRecord]) -> dict[tuple, dict[str, float]]:
    """Means per (technique, kind, window, split) cell; a metric without values is left out."""
    out = {}
    cells = _group(records, lambda r: (r.technique, r.kind, r.window_k, r.split_index))
    for cell, group in cells.items():
        means = {}
        for metric in RANK_METRICS:
            values, _ = _metric_values(group, metric)
            if values:
                means[metric] = sum(values) / len(values)
        out[cell] = means
    return out


def _rank_sds(cell_means: Mapping[tuple, Mapping[str, float]],
              kind: str) -> dict[str, float]:
    """SD of each technique's per-cell rank within one configuration."""
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


def rank_stability(records: Sequence[ResultRecord], kind: str) -> dict[str, float]:
    """SD of each technique's per-cell rank within one configuration.

    A cell is one (window, split) combination. Within each cell the
    techniques are ranked on their mean metric values (degenerate AUC
    rows excluded; the AUC metric is dropped for a cell where nothing
    remains). Cells that do not cover every technique are skipped. With
    fewer than two usable cells the SD is 0.
    """
    kind_records = [r for r in records if r.kind == kind]
    if len({r.technique for r in kind_records}) < 2:
        raise ConfigError("rank stability needs at least 2 techniques")
    return _rank_sds(_cell_means(kind_records), kind)


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
    has only its overall row.
    """
    out_dir = Path(out_dir)
    overall = aggregate(records, by_window=False, threshold=stability_threshold)
    cell_means = _cell_means(records)
    per_window = aggregate(records, by_window=True, threshold=stability_threshold)
    _write_stability(out_dir / "stability.csv", overall + [
        row for row in per_window if row.window_k is not None])
    _write_ranks(out_dir / "ranks.csv", overall, cell_means)
    _write_comparisons(out_dir / "comparisons.csv", records)
    _write_plotdata(out_dir / "plotdata.csv", cell_means)


def _write_stability(path: Path, rows: Sequence[StabilityRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("technique,kind,window_k,metric,n,excluded,mean,sd,stable\n")
        for row in rows:
            fh.write(f"{row.technique},{row.kind},{_fmt(row.window_k)},"
                     f"{row.metric},{row.n},{row.excluded},{_fmt(row.mean)},"
                     f"{_fmt(row.sd)},{_fmt(row.stable)}\n")


def _write_ranks(path: Path, overall: Sequence[StabilityRow],
                 cell_means: Mapping[tuple, Mapping[str, float]]) -> None:
    """Rank scores per kind; techniques enter in first-appearance order over all records."""
    techniques = list(dict.fromkeys(cell[0] for cell in cell_means))
    kinds = list(dict.fromkeys(cell[1] for cell in cell_means))
    means: dict[tuple, dict[str, float]] = {}
    for row in overall:
        if row.mean is not None:
            means.setdefault((row.technique, row.kind), {})[row.metric] = row.mean
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("kind,technique,rankscore_fscore,rankscore_auc,rankscore_mcc,"
                 "rankscore_gmeasure,mean_rank_score,rank,rank_sd\n")
        if len(techniques) < 2:
            return
        for kind in kinds:
            values = {t: means[t, kind] for t in techniques
                      if len(means.get((t, kind), ())) == len(RANK_METRICS)}
            if len(values) < 2:
                logger.warning("ranks for %s skipped: fewer than 2 techniques "
                               "with complete metrics", kind)
                continue
            sd_by_tech = _rank_sds(cell_means, kind)
            for row in rank_techniques(values):
                rs = dict(zip(RANK_METRICS, row.rankscores))
                fh.write(f"{kind},{row.technique},{_fmt(rs['fscore'])},"
                         f"{_fmt(rs['auc'])},{_fmt(rs['mcc'])},"
                         f"{_fmt(rs['gmeasure'])},{_fmt(row.mean_rank_score)},"
                         f"{row.rank},{_fmt(sd_by_tech[row.technique])}\n")


def _write_comparisons(path: Path, records: Sequence[ResultRecord]) -> None:
    """Time-aware configurations pooled against the cross-validation baseline."""
    baseline_kind = ConfigurationKind.CROSSVAL.value
    sides = _group(records, lambda r: (r.technique, r.kind == baseline_kind))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("technique,metric,p_value,cliffs_delta,magnitude\n")
        for tech in dict.fromkeys(tech for tech, _ in sides):
            for metric in RANK_METRICS:
                a, _ = _metric_values(sides.get((tech, False), []), metric)
                b, _ = _metric_values(sides.get((tech, True), []), metric)
                if not a or not b:
                    continue
                p = wilcoxon_rank_sum(a, b)
                delta, label = cliffs_delta(a, b)
                fh.write(f"{tech},{metric},{_fmt(p)},{_fmt(delta)},{label}\n")


def _write_plotdata(path: Path,
                    cell_means: Mapping[tuple, Mapping[str, float]]) -> None:
    """Per-cell metric means in the layout of the variation figures."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("technique,kind,window_k,split_index,metric,value\n")
        for (tech, kind, window, split), means in cell_means.items():
            for metric, mean in means.items():
                fh.write(f"{tech},{kind},{_fmt_window(window)},{split},"
                         f"{metric},{_fmt(mean)}\n")
