"""Experiment orchestration: one walk over the pairs; results, manifest, dumps.

Window truncation gives several (window, split) tags the same train and
test releases, so the run computes each distinct (train, test) set once
(``_set_key``). It walks the pairs in enumeration order and keeps one
entry per training side: the side's trees and the results of its sets.
A set's first tag runs assembly -> optional under-sampling -> treatment
-> tree training -> per-version scoring, and every tag of the set, the
first included, takes its results: rows, skip warnings, failures and
tree dumps. A tree is grown once per distinct training order of a
training side: an input whose attributes sort and tie as an earlier
input's of the same side, with the same labels and weights, takes that
tree with thresholds from its own values (``tree.rethreshold``), bit for
bit the tree a fit would give. So treatments that only map each
attribute through an increasing function, such as camargocruz09 against
watanabe08, share a tree. A side's trees and set results are dropped
after its last tag.

A set keeps, per technique, its results.csv lines after the tag
(stability.result_lines) and a block of stability.SCORES rows for the
reports, not its VersionScores; a set's blocks are slices of one array
made before its fits. Each tag writes its rows as soon as the walk
reaches it (write_results_csv) and adds a ResultBlock that shares its
set's block, so the run holds no per-row objects. The tags' rows and
tree dumps, then the manifest and reports, go to publish's staging
directory and move into the output directory, results.csv last, once
the row accounting balances and every file is written.

A (pair, technique) combination is logged and skipped for a documented
data condition (DegenerateTreatmentError, BalancingError, or an
UnusableDataError for input the treatments or the tree reject); any
other exception, a plain ValueError included, fails the run. Rows
expected (test versions times techniques, counted off the pair list)
less skipped rows are the rows written. All output is byte-deterministic
for a fixed config and seed: rows and warnings come in enumeration
order, floats use their shortest round-trip representation, and the
manifest has no timestamps.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import tempfile
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from . import __version__
from ._digest import sha256
from .config import ExperimentConfig, config_hash
from .dataset import (Release, TimeSeriesDataset, bucketize, dataset_summary,
                      parse_dataset)
from .errors import (BalancingError, ConfigError, DatasetError,
                     DegenerateTreatmentError, UnusableDataError)
from .metrics import evaluate_pair
from .pairs import (ConfigurationKind, PairSpec, TrainTestPair, crossval_pairs,
                    enumerate_pairs)
from .stability import (RESULTS_HEADER, SCORES, ResultBlock, _csv_line,
                        _fmt_window, result_lines, score_fields, undersample,
                        write_reports, write_results_csv)
from .tree import (DecisionTree, dump_tree, rethreshold, train_tree,
                   training_order)
from .treatments import (TreatedPair, amasaki15, assemble_pair, camargocruz09,
                         identity_treatment, ma12, nam15, watanabe08)

logger = logging.getLogger(__name__)


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
        return nam15(tp)
    raise ConfigError(f"unknown technique: {name}")


def pair_seed(base_seed: int, spec: PairSpec) -> int:
    """Stable per-pair seed so results do not depend on execution order."""
    key = (f"{base_seed}:{spec.kind.value}:{_fmt_window(spec.window_k)}"
           f":{spec.split_index}:{spec.gap_buckets}")
    return int.from_bytes(sha256(key.encode()).digest()[:8], "big")


def load_dataset(config: ExperimentConfig) -> tuple[list[Release], TimeSeriesDataset]:
    try:
        with open(config.dataset_path, encoding="utf-8-sig", newline="") as fh:
            releases = parse_dataset(fh, config.schema)
    except (OSError, UnicodeDecodeError) as exc:
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


def _set_key(pair: TrainTestPair,
             config: ExperimentConfig) -> tuple[tuple, tuple]:
    """(training side, test side): pairs with equal keys share their results.

    Window truncation at the dataset edges gives several (window, split)
    tags the same train and test releases. Under-sampling draws with a
    per-pair seed, so with balancing on the seed is part of the training
    side and no two pairs share one.
    """
    train: tuple = tuple(r.key for r in pair.train)
    if config.balance:
        train += (pair_seed(config.seed, pair.spec),)
    return train, tuple(r.key for r in pair.test)


@dataclass(frozen=True)
class _Fit:
    """One technique on one distinct (train, test) set, as each of its tags takes it."""

    lines: list[str]  # results.csv lines after the tag, one per test version
    scores: np.ndarray  # the stability.SCORES of those rows
    tree_dump: str | None  # only with --dump-trees


# per technique, its fit or the error that skipped it
_SetResult = list[_Fit | BalancingError | DegenerateTreatmentError
                  | UnusableDataError]


def _run_set(pair: TrainTestPair, trees: dict[bytes, DecisionTree],
             config: ExperimentConfig, dump_trees: bool) -> _SetResult:
    """Results of one distinct (train, test) set, per technique.

    A set that cannot be balanced gives its BalancingError to every
    technique. trees holds the trees of the set's training side by
    training order key (TreeParams is the same for the whole run); a
    fit adds to it. Technique i's scores are rows [i*v, (i+1)*v) of one
    SCORES array for the set's v test versions, made before the first
    fit so that it stays out of the heap the fits' scratch comes and
    goes in; a skipped technique leaves its rows unused. Errors are
    kept without their tracebacks, which would hold the frames' arrays
    until the side's last tag.
    """
    versions = len(pair.test)
    scores = np.empty(versions * len(config.techniques), dtype=SCORES)
    base = assemble_pair(pair)
    if config.balance:
        try:
            base = undersample(base, pair_seed(config.seed, pair.spec))
        except BalancingError as exc:
            return [exc.with_traceback(None)] * len(config.techniques)
    fits: _SetResult = []
    for i, technique in enumerate(config.techniques):
        try:
            treated = apply_treatment(technique, base, config)
            order, key = training_order(treated)
            tree = trees.get(key)
            if tree is None:
                tree = trees[key] = train_tree(treated, config.tree_params,
                                               order=order)
            else:
                tree = rethreshold(tree, treated)
            version_scores = evaluate_pair(tree, treated)
        except (DegenerateTreatmentError, UnusableDataError) as exc:
            fits.append(exc.with_traceback(None))
            continue
        block = scores[i * versions:(i + 1) * versions]
        block[:] = [score_fields(vs) for vs in version_scores]
        block.flags.writeable = False
        fits.append(_Fit(result_lines(version_scores), block,
                         dump_tree(tree) if dump_trees else None))
    return fits


@dataclass
class _Tally:
    """What the walk hands to the manifest and the reports."""

    blocks: list[ResultBlock] = field(default_factory=list)
    rows: int = 0
    failures: int = 0
    failure_rows: int = 0


def _walk(tasks: Sequence[TrainTestPair], config: ExperimentConfig,
          results: IO[str], dumps: IO[str] | None) -> _Tally:
    """Give every (pair, technique) tag, in enumeration order, its set's results.

    A training side's entry holds its trees and its set results. A set
    is computed at its first tag; the whole entry is dropped after the
    side's last tag. Each tag's rows go to results, and its titled tree
    dump to dumps if given, as the walk reaches it.
    """
    keys = [_set_key(pair, config) for pair in tasks]
    last_tag = {train: i for i, (train, _) in enumerate(keys)}
    sides: dict[tuple, tuple[dict[bytes, DecisionTree],
                             dict[tuple, _SetResult]]] = {}
    tally = _Tally()
    for i, (pair, (train, test)) in enumerate(zip(tasks, keys)):
        trees, sets = sides.setdefault(train, ({}, {}))
        if test not in sets:
            sets[test] = _run_set(pair, trees, config, dumps is not None)
        if last_tag[train] == i:
            del sides[train]
        spec = pair.spec
        test_versions = len(pair.test)
        for technique, fit in zip(config.techniques, sets[test]):
            if not isinstance(fit, _Fit):
                logger.warning("pair %s K=%s split=%s technique=%s: %s; skipped",
                               spec.kind.value, _fmt_window(spec.window_k),
                               spec.split_index, technique, fit)
                tally.failures += 1
                tally.failure_rows += test_versions
                continue
            if dumps is not None:
                dumps.write(f"# technique={technique} kind={spec.kind.value} "
                            f"window={_fmt_window(spec.window_k)} "
                            f"split={spec.split_index} gap={spec.gap_buckets}"
                            f"\n{fit.tree_dump}")
            tag = (technique, spec.kind.value, spec.window_k,
                   spec.split_index, spec.gap_buckets)
            write_results_csv(results, tag, fit.lines)
            tally.rows += len(fit.lines)
            tally.blocks.append(ResultBlock(*tag, fit.scores))
    return tally


@contextmanager
def publish(out: Path) -> Iterator[Path]:
    """Make out and yield a staging directory in it; its files then move into out.

    On a clean exit, a target that is a directory (not a symlink to one,
    which os.replace replaces) raises OSError before any file moves;
    results.csv moves last. The staging directory is removed either way.
    """
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".run-", dir=out))
    try:
        yield stage
        names = sorted(os.listdir(stage), key=lambda n: (n == "results.csv", n))
        for target in (out / name for name in names):
            if target.is_dir() and not target.is_symlink():
                raise OSError(f"{target} is a directory")
        for name in names:
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage)


def run_experiment(config: ExperimentConfig, out_dir: Path | None = None,
                   threads: int = 1, dump_trees: bool = False) -> RunSummary:
    """Run the full experiment and write results, manifest, and reports.

    The files move into out (publish) once all are written and the row
    accounting balances: a run that fails leaves out as it was. All work
    runs in the calling thread; threads must be >= 1 but is unused
    (ROADMAP item 1 drops it once the benchmark stops passing it).
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    out = Path(out_dir) if out_dir is not None else config.output_dir
    releases, ts = load_dataset(config)
    tasks = build_tasks(config, ts, releases)
    expected_rows = sum(len(pair.test) for pair in tasks) * len(config.techniques)
    # after the input checks, so bad input writes nothing
    with publish(out) as stage:
        with open(stage / "results.csv", "w", encoding="utf-8", newline="") \
                as fh, (open(stage / "trees.txt", "w", encoding="utf-8")
                        if dump_trees else nullcontext()) as dumps:
            fh.write(RESULTS_HEADER + "\n")
            tally = _walk(tasks, config, fh, dumps)
        if expected_rows - tally.failure_rows != tally.rows:
            raise RuntimeError("row accounting does not balance")
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
                "rows_from_failed_combinations": tally.failure_rows,
                "written_rows": tally.rows,
            },
            "pair_technique_failures": tally.failures,
        }
        with open(stage / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_reports(tally.blocks, stage, config.stability_threshold)
    return RunSummary(out_dir=out, rows_written=tally.rows,
                      pairs_total=len(tasks),
                      pair_technique_failures=tally.failures)


def _pair_counts(tasks: Sequence[TrainTestPair]) -> Counter[str]:
    return Counter(pair.spec.kind.value for pair in tasks)


def write_summary_csv(fh: IO[str], ts: TimeSeriesDataset) -> None:
    fh.write("bucket_index,start,end,releases,instances,defective_pct\n")
    for row in dataset_summary(ts):
        fh.write(_csv_line(row.bucket_index, row.start.isoformat(),
                           row.end.isoformat(), row.releases, row.instances,
                           row.defective_pct))


def write_pairs_csv(fh: IO[str], tasks: Sequence[TrainTestPair]) -> None:
    fh.write("kind,window_k,split_index,gap,train_versions,test_versions\n")
    for pair in tasks:
        train = ";".join(f"{r.project_id}/{r.version_id}" for r in pair.train)
        test = ";".join(f"{r.project_id}/{r.version_id}" for r in pair.test)
        fh.write(_csv_line(pair.spec.kind.value, _fmt_window(pair.spec.window_k),
                           pair.spec.split_index, pair.spec.gap_buckets,
                           train, test))


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

    if config.configurations and ts.bucket_count < config.gap_buckets + 2:
        diags.append(Diagnostic(
            "warning", f"only {ts.bucket_count} buckets with gap "
                       f"{config.gap_buckets}: no room for any time-aware pair"))
    try:
        tasks = build_tasks(config, ts, releases)
    except ConfigError as exc:
        diags.append(Diagnostic("error", str(exc)))
        return diags
    counts = _pair_counts(tasks)
    for kind in config.configurations:
        if kind.value not in counts:
            diags.append(Diagnostic(
                "warning", f"no feasible pairs for configuration {kind.value}"))
        else:
            diags.append(Diagnostic(
                "info", f"{kind.value}: {counts[kind.value]} pairs"))
    if config.baseline_crossval is not None:
        crossval = counts.get(ConfigurationKind.CROSSVAL.value, 0)
        diags.append(Diagnostic("info", f"crossval: {crossval} pairs"))
        # comparisons.csv pools each side's rows; say how many releases
        # the two sides have in common
        scored: dict[bool, set] = {True: set(), False: set()}
        for pair in tasks:
            scored[pair.spec.kind is ConfigurationKind.CROSSVAL].update(
                r.key for r in pair.test)
        baseline, time_aware = scored[True], scored[False]
        diags.append(Diagnostic(
            "info", f"crossval: scores {len(baseline)} of {len(releases)} "
                    f"releases"))
        if config.configurations:
            shared = len(baseline & time_aware)
            diags.append(Diagnostic(
                "info" if shared else "warning",
                f"crossval: scores {shared} of the {len(time_aware)} "
                f"time-aware test versions"
                + ("" if shared else
                   "; comparisons.csv compares different releases")))
    keys = {_set_key(pair, config) for pair in tasks}
    diags.append(Diagnostic(
        "info", f"plan: {len(tasks)} pairs, {len(keys)} distinct (train, test) "
                f"sets, {len({train for train, _ in keys})} training sides"))
    return diags
