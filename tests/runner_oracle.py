"""Reference runner: the per-pair loop that sharing work between pairs replaced.

Every pair is assembled, (optionally) under-sampled, treated, fitted and
scored on its own, even when another pair has the same (train, test)
releases or a technique leaves the same training input. Skip warnings
are logged where the skip happens. ``tests/test_runner_oracle.py``
checks that ``timeaware_cpdp.runner.run_experiment`` writes the same
bytes and logs the same warnings. ``training_digest`` is the byte digest
the runner once keyed its fits on.

The layer functions are bound here under the names ``runner`` binds, so
a test that replaces one of them has to replace it in both modules.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

from timeaware_cpdp import __version__
from timeaware_cpdp.config import ExperimentConfig, config_hash
from timeaware_cpdp.errors import BalancingError, DegenerateTreatmentError
from timeaware_cpdp.metrics import evaluate_pair
from timeaware_cpdp.pairs import TrainTestPair
from timeaware_cpdp.runner import (RunSummary, _pair_counts, apply_treatment,
                                   build_tasks, load_dataset, pair_seed,
                                   write_results_csv)
from timeaware_cpdp.stability import (ResultRecord, _fmt_window, undersample,
                                      write_reports)
from timeaware_cpdp.tree import dump_tree, train_tree
from timeaware_cpdp.treatments import TreatedPair, assemble_pair

logger = logging.getLogger(__name__)


def training_digest(treated: TreatedPair) -> bytes:
    """Equal digests mean equal training input, hence equal trees.

    TreeParams is the same for the whole run, so it is not part of it.
    """
    digest = hashlib.sha256()
    for array in (treated.train_features, treated.train_labels,
                  treated.train_weights):
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.digest()


@dataclass
class _TaskOutput:
    test_versions: int  # distinct (project, version) test releases of the pair
    records: list[ResultRecord]
    failures: int
    tree_dumps: list[tuple[str, str]]


def _run_task(pair: TrainTestPair, config: ExperimentConfig,
              dump_trees: bool) -> _TaskOutput:
    spec = pair.spec
    records: list[ResultRecord] = []
    dumps: list[tuple[str, str]] = []
    failures = 0

    assembled = assemble_pair(pair)
    test_versions = len({(r.project_id, r.version_id) for r in pair.test})
    base = assembled
    if config.balance:
        try:
            base = undersample(assembled, pair_seed(config.seed, spec))
        except BalancingError as exc:
            for technique in config.techniques:
                logger.warning("pair %s K=%s split=%s technique=%s: %s; skipped",
                               spec.kind.value, _fmt_window(spec.window_k),
                               spec.split_index, technique, exc)
            return _TaskOutput(test_versions, [], len(config.techniques), [])

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
        if dump_trees:
            title = (f"technique={technique} kind={spec.kind.value} "
                     f"window={_fmt_window(spec.window_k)} "
                     f"split={spec.split_index} gap={spec.gap_buckets}")
            dumps.append((title, dump_tree(tree)))
        for vs in version_scores:
            records.append(ResultRecord(
                technique, spec.kind.value, spec.window_k, spec.split_index,
                spec.gap_buckets, *vs))
    return _TaskOutput(test_versions, records, failures, dumps)


def run_experiment(config: ExperimentConfig, out_dir: Path | None = None,
                   dump_trees: bool = False) -> RunSummary:
    """Run the full experiment and write results, manifest, and reports."""
    out = Path(out_dir) if out_dir is not None else config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    releases, ts = load_dataset(config)
    tasks = build_tasks(config, ts, releases)
    outputs = [_run_task(pair, config, dump_trees) for pair in tasks]

    records: list[ResultRecord] = []
    failures = 0
    dumps: list[tuple[str, str]] = []
    for output in outputs:
        records.extend(output.records)
        failures += output.failures
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
            "written_rows": len(records),
        },
        "pair_technique_failures": failures,
    }
    if expected_rows - failure_rows != len(records):
        raise RuntimeError("row accounting does not balance")
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_reports(records, out, config.stability_threshold)
    return RunSummary(out_dir=out, rows_written=len(records),
                      pairs_total=len(tasks),
                      pair_technique_failures=failures)
