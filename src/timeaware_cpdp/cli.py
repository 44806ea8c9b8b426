"""Command line interface.

Subcommands:

    validate   check config and dataset, print diagnostics
    summary    per-bucket dataset summary CSV
    pairs      train/test pair manifest CSV
    run        full experiment: results.csv, manifest.json, reports
    report     rebuild the report CSVs from an existing results.csv

Exit codes: 0 success, 1 configuration or dataset error, 2 internal
error or (from argparse) a usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import IO, Callable

from .config import ExperimentConfig
from .errors import ConfigError, DatasetError
from .runner import (build_tasks, load_dataset, publish, run_experiment,
                     validate, write_pairs_csv, write_summary_csv)
from .stability import load_results_csv, write_reports

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeaware-cpdp",
        description="Time-aware evaluation of cross-project defect prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, func in (
            ("validate", "check config and dataset", cmd_validate),
            ("summary", "dataset bucket summary", cmd_summary),
            ("pairs", "write the pair manifest", cmd_pairs),
            ("run", "run the experiment", cmd_run),
            ("report", "rebuild reports from <out>/results.csv", cmd_report)):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, type=Path,
                       help="experiment config file")
        if name != "validate":
            p.add_argument("--out", type=Path, default=None, metavar="DIR",
                           help=f"write {name}.csv into DIR instead of stdout"
                           if name in ("summary", "pairs") else
                           "output directory (overrides run.output_dir)")
        if name == "run":
            p.add_argument("--dump-trees", action="store_true",
                           help="also write every trained tree to trees.txt")
        p.set_defaults(func=func)
    return parser


def cmd_validate(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    diagnostics = validate(config)
    for diag in diagnostics:
        print(f"{diag.severity.upper()}: {diag.message}")
    return 1 if any(diag.severity == "error" for diag in diagnostics) else 0


def _emit(out: Path | None, name: str, write: Callable[[IO[str]], None]) -> None:
    """Write to stdout, or publish out/name when --out is given."""
    if out is None:
        write(sys.stdout)
        return
    with publish(out) as stage, \
            open(stage / name, "w", encoding="utf-8", newline="") as fh:
        write(fh)
    print(f"wrote {out / name}")


def cmd_summary(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    _, ts = load_dataset(config)
    _emit(args.out, "summary.csv", lambda fh: write_summary_csv(fh, ts))
    return 0


def cmd_pairs(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    releases, ts = load_dataset(config)
    tasks = build_tasks(config, ts, releases)
    _emit(args.out, "pairs.csv", lambda fh: write_pairs_csv(fh, tasks))
    return 0


def cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    summary = run_experiment(config, out_dir=args.out,
                             dump_trees=args.dump_trees)
    print(f"wrote {summary.rows_written} result rows from "
          f"{summary.pairs_total} pairs to {summary.out_dir} "
          f"({summary.pair_technique_failures} combination failures)")
    return 0


def cmd_report(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    out = args.out or config.output_dir
    results = out / "results.csv"
    blocks = load_results_csv(results)
    with publish(out) as stage:
        write_reports(blocks, stage, config.stability_threshold)
    print(f"rebuilt reports in {out} from {results}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, OSError) as exc:
        logger.error("%s", exc)
        return 1
    except Exception:
        logger.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
