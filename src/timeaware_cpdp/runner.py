"""Experiment orchestration: results, manifest and tree dumps.

The pipeline per pair is: enumerate -> optional under-sampling ->
treatment -> tree training -> per-version scoring. A (pair, technique)
combination is logged and skipped for a documented data condition
(DegenerateTreatmentError, BalancingError, or a ValueError for input
the treatments or the tree reject); any other exception fails the run.
All output is byte-deterministic for a fixed config and seed: rows are
written in enumeration order, floats use their shortest round-trip
representation, and the manifest carries no timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
from .config import ExperimentConfig, config_hash
from .dataset import (Release, TimeSeriesDataset, bucketize, dataset_summary,
                      parse_dataset)
from .errors import (BalancingError, ConfigError, DatasetError,
                     DegenerateTreatmentError)
from .metrics import ConfusionMatrix, ScoreSet, evaluate_pair
from .pairs import PairSpec, TrainTestPair, crossval_pairs, enumerate_pairs
from .stability import (UNBOUNDED, ResultRecord, _fmt, _fmt_window,
                        undersample, write_reports)
from .tree import dump_tree, train_tree
from .treatments import (TreatedPair, amasaki15, assemble_pair, camargocruz09,
                         identity_treatment, ma12, nam15, watanabe08)

logger = logging.getLogger(__name__)

RESULTS_COLUMNS = (
    "technique", "kind", "window_k", "split_index", "gap",
    "test_project", "test_version",
    "tp", "fp", "tn", "fn",
    "precision", "recall", "fscore", "gmeasure", "mcc", "auc",
    "auc_degenerate",
)
RESULTS_HEADER = ",".join(RESULTS_COLUMNS)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "info"
    message: str


@dataclass
class RunSummary:
    out_dir: Path
    rows_written: int
    pairs_total: int
    pair_technique_failures: int
    version_skips: int


def _parse_window(text: str) -> int | None:
    return None if text == UNBOUNDED else int(text)


def apply_treatment(name: str, tp: TreatedPair,
                    config: ExperimentConfig) -> TreatedPair:
    if name == "identity":
        return identity_treatment(tp)
    if name == "watanabe08":
        return watanabe08(tp)
    if name == "camargocruz09":
        return camargocruz09(tp)
    if name == "ma12":
        return ma12(tp)
    if name == "amasaki15":
        return amasaki15(tp, attr_mad_mult=config.amasaki_attr_mad_mult,
                         relevancy_mult=config.amasaki_relevancy_mult)
    if name == "nam15":
        return nam15(tp, violation_threshold=config.nam_violation_threshold)
    raise ConfigError(f"unknown technique: {name}")


def pair_seed(base_seed: int, spec: PairSpec) -> int:
    """Stable per-pair seed so results do not depend on execution order."""
    key = (f"{base_seed}:{spec.kind.value}:{_fmt_window(spec.window_k)}"
           f":{spec.split_index}:{spec.gap_buckets}")
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def load_dataset(config: ExperimentConfig) -> tuple[list[Release], TimeSeriesDataset]:
    try:
        with open(config.dataset_path, encoding="utf-8-sig", newline="") as fh:
            releases = parse_dataset(fh, config.schema)
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {config.dataset_path}: {exc}") from None
    return releases, bucketize(releases, config.granularity_months)


def build_tasks(config: ExperimentConfig, ts: TimeSeriesDataset,
                releases: list[Release]) -> list[TrainTestPair]:
    """All pairs of the experiment in deterministic enumeration order."""
    tasks: list[TrainTestPair] = []
    for kind in config.configurations:
        tasks.extend(enumerate_pairs(ts, kind, config.gap_buckets))
    if config.baseline_crossval is not None:
        tasks.extend(crossval_pairs(releases, config.baseline_crossval,
                                    config.seed))
    return tasks


@dataclass
class _TaskOutput:
    test_versions: int  # distinct (project, version) test releases of the pair
    records: list[ResultRecord]
    failures: int
    version_skips: int
    tree_dumps: list[tuple[str, str]]


def _run_task(pair: TrainTestPair, config: ExperimentConfig,
              dump_trees: bool) -> _TaskOutput:
    spec = pair.spec
    records: list[ResultRecord] = []
    dumps: list[tuple[str, str]] = []
    failures = 0
    version_skips = 0

    assembled = assemble_pair(pair)
    test_versions = len({(r.project_id, r.version_id) for r in pair.test})
    base = assembled
    if config.balance:
        try:
            base = undersample(assembled, pair_seed(config.seed, spec))
        except BalancingError as exc:
            logger.warning("pair %s K=%s split=%s: balancing failed (%s); skipped",
                           spec.kind.value, _fmt_window(spec.window_k),
                           spec.split_index, exc)
            return _TaskOutput(test_versions, [], len(config.techniques), 0, [])

    for technique in config.techniques:
        try:
            treated = apply_treatment(technique, base, config)
            tree = train_tree(treated, config.tree_params)
            version_scores = evaluate_pair(tree, treated)
        except (DegenerateTreatmentError, ValueError) as exc:
            logger.warning("pair %s K=%s split=%s technique=%s: %s; skipped",
                           spec.kind.value, _fmt_window(spec.window_k),
                           spec.split_index, technique, exc)
            failures += 1
            continue
        version_skips += test_versions - len(version_scores)
        if dump_trees:
            title = (f"technique={technique} kind={spec.kind.value} "
                     f"window={_fmt_window(spec.window_k)} "
                     f"split={spec.split_index} gap={spec.gap_buckets}")
            dumps.append((title, dump_tree(tree)))
        for vs in version_scores:
            records.append(ResultRecord(
                technique=technique, kind=spec.kind.value,
                window_k=spec.window_k, split_index=spec.split_index,
                gap=spec.gap_buckets, test_project=vs.project_id,
                test_version=vs.version_id, cm=vs.cm, scores=vs.scores,
                auc_degenerate=vs.auc_degenerate))
    return _TaskOutput(test_versions, records, failures, version_skips, dumps)


def run_experiment(config: ExperimentConfig, out_dir: Path | None = None,
                   threads: int = 1, dump_trees: bool = False) -> RunSummary:
    """Run the full experiment and write results, manifest, and reports."""
    out = Path(out_dir) if out_dir is not None else config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    releases, ts = load_dataset(config)
    tasks = build_tasks(config, ts, releases)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(
                lambda pair: _run_task(pair, config, dump_trees), tasks))
    else:
        outputs = [_run_task(pair, config, dump_trees) for pair in tasks]

    records: list[ResultRecord] = []
    failures = 0
    version_skips = 0
    dumps: list[tuple[str, str]] = []
    for output in outputs:
        records.extend(output.records)
        failures += output.failures
        version_skips += output.version_skips
        dumps.extend(output.tree_dumps)

    write_results_csv(out / "results.csv", records)
    if dump_trees:
        with open(out / "trees.txt", "w", encoding="utf-8") as fh:
            for title, text in dumps:
                fh.write(f"# {title}\n{text}")

    expected_rows = sum(o.test_versions for o in outputs) * len(config.techniques)
    failure_rows = sum(o.test_versions * o.failures for o in outputs)
    manifest = {
        "tool_version": __version__,
        "config_sha256": config_hash(config),
        "seed": config.seed,
        "bucket_count": ts.bucket_count,
        "granularity_months": ts.granularity_months,
        "releases": len(releases),
        "pair_counts": _pair_counts(tasks),
        "row_accounting": {
            "expected_rows": expected_rows,
            "rows_from_failed_combinations": failure_rows,
            "version_skips": version_skips,
            "written_rows": len(records),
        },
        "pair_technique_failures": failures,
    }
    if expected_rows - failure_rows - version_skips != len(records):
        raise RuntimeError("row accounting does not balance")
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_reports(records, out, config.stability_threshold)
    return RunSummary(out_dir=out, rows_written=len(records),
                      pairs_total=len(tasks),
                      pair_technique_failures=failures,
                      version_skips=version_skips)


def _pair_counts(tasks: Sequence[TrainTestPair]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for pair in tasks:
        counts[pair.spec.kind.value] = counts.get(pair.spec.kind.value, 0) + 1
    return counts


def write_results_csv(path: Path, records: Sequence[ResultRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in records:
            fields = (
                r.technique, r.kind, _fmt_window(r.window_k),
                str(r.split_index), str(r.gap), r.test_project, r.test_version,
                str(r.cm.tp), str(r.cm.fp), str(r.cm.tn), str(r.cm.fn),
                _fmt(r.scores.precision), _fmt(r.scores.recall),
                _fmt(r.scores.fscore), _fmt(r.scores.gmeasure),
                _fmt(r.scores.mcc), _fmt(r.scores.auc),
                _fmt(r.auc_degenerate),
            )
            fh.write(",".join(fields) + "\n")


def load_results_csv(path: Path) -> list[ResultRecord]:
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(RESULTS_COLUMNS):
            raise DatasetError(f"{path}: unexpected results header")
        for row in reader:
            records.append(ResultRecord(
                technique=row["technique"], kind=row["kind"],
                window_k=_parse_window(row["window_k"]),
                split_index=int(row["split_index"]), gap=int(row["gap"]),
                test_project=row["test_project"],
                test_version=row["test_version"],
                cm=ConfusionMatrix(tp=int(row["tp"]), fp=int(row["fp"]),
                                   tn=int(row["tn"]), fn=int(row["fn"])),
                scores=ScoreSet(precision=float(row["precision"]),
                                recall=float(row["recall"]),
                                fscore=float(row["fscore"]),
                                gmeasure=float(row["gmeasure"]),
                                mcc=float(row["mcc"]),
                                auc=float(row["auc"])),
                auc_degenerate=row["auc_degenerate"] == "true"))
    return records


def write_summary_csv(path_or_buffer, ts: TimeSeriesDataset) -> None:
    rows = dataset_summary(ts)

    def emit(fh):
        fh.write("bucket_index,start,end,releases,instances,defective_pct\n")
        for row in rows:
            fh.write(f"{row.bucket_index},{row.start.isoformat()},"
                     f"{row.end.isoformat()},{row.releases},{row.instances},"
                     f"{row.defective_pct!r}\n")

    if hasattr(path_or_buffer, "write"):
        emit(path_or_buffer)
    else:
        with open(path_or_buffer, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


def write_pairs_csv(path_or_buffer, tasks: Sequence[TrainTestPair]) -> None:
    def emit(fh):
        fh.write("kind,window_k,split_index,gap,train_versions,test_versions\n")
        for pair in tasks:
            train = ";".join(f"{r.project_id}/{r.version_id}" for r in pair.train)
            test = ";".join(f"{r.project_id}/{r.version_id}" for r in pair.test)
            fh.write(f"{pair.spec.kind.value},{_fmt_window(pair.spec.window_k)},"
                     f"{pair.spec.split_index},{pair.spec.gap_buckets},"
                     f"{train},{test}\n")

    if hasattr(path_or_buffer, "write"):
        emit(path_or_buffer)
    else:
        with open(path_or_buffer, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


def validate(config: ExperimentConfig) -> list[Diagnostic]:
    """Check schema, dates, and pair feasibility without training models."""
    diags: list[Diagnostic] = []
    try:
        releases, ts = load_dataset(config)
    except DatasetError as exc:
        diags.append(Diagnostic("error", str(exc)))
        return diags

    diags.append(Diagnostic(
        "info", f"{len(releases)} releases from "
                f"{len({r.project_id for r in releases})} projects, "
                f"{sum(len(r) for r in releases)} instances"))
    diags.append(Diagnostic(
        "info", f"{ts.bucket_count} buckets of {ts.granularity_months} months "
                f"from {ts.buckets[0].start} to {ts.buckets[-1].end}"))
    for bucket in ts.buckets:
        if bucket.releases:
            diags.append(Diagnostic(
                "info", f"bucket {bucket.index} [{bucket.start}..{bucket.end}): "
                        f"{len(bucket.releases)} releases"))

    if ts.bucket_count < config.gap_buckets + 2:
        diags.append(Diagnostic(
            "warning", f"only {ts.bucket_count} buckets with gap "
                       f"{config.gap_buckets}: no room for any time-aware pair"))
    for kind in config.configurations:
        n = len(enumerate_pairs(ts, kind, config.gap_buckets))
        if n == 0:
            diags.append(Diagnostic(
                "warning", f"no feasible pairs for configuration {kind.value}"))
        else:
            diags.append(Diagnostic("info", f"{kind.value}: {n} pairs"))
    if config.baseline_crossval is not None:
        if config.baseline_crossval > len(releases):
            diags.append(Diagnostic(
                "error", f"baseline_crossval={config.baseline_crossval} "
                         f"exceeds the {len(releases)} releases"))
        else:
            n = len(crossval_pairs(releases, config.baseline_crossval,
                                   config.seed))
            diags.append(Diagnostic("info", f"crossval: {n} pairs"))
    return diags
