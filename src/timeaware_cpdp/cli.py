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
from .runner import (build_tasks, load_dataset, run_experiment, validate,
                     write_pairs_csv, write_summary_csv)
from .stability import load_results_csv, write_reports

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeaware-cpdp",
        description="Time-aware evaluation of cross-project defect prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, type=Path,
                       help="experiment config file")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides run.output_dir)")

    p_validate = sub.add_parser("validate", help="check config and dataset")
    add_common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_summary = sub.add_parser("summary", help="dataset bucket summary")
    add_common(p_summary)
    p_summary.set_defaults(func=cmd_summary)

    p_pairs = sub.add_parser("pairs", help="write the pair manifest")
    add_common(p_pairs)
    p_pairs.set_defaults(func=cmd_pairs)

    p_run = sub.add_parser("run", help="run the experiment")
    add_common(p_run)
    p_run.add_argument("--dump-trees", action="store_true",
                       help="also write every trained tree to trees.txt")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser(
        "report", help="rebuild reports from <out>/results.csv")
    add_common(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def _out_dir(args, config: ExperimentConfig) -> Path:
    return args.out if args.out is not None else config.output_dir


def cmd_validate(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    diagnostics = validate(config)
    errors = 0
    for diag in diagnostics:
        print(f"{diag.severity.upper()}: {diag.message}")
        if diag.severity == "error":
            errors += 1
    return 1 if errors else 0


def _emit(out: Path | None, name: str, write: Callable[[IO[str]], None]) -> None:
    """Write to stdout, or to out/name when --out is given."""
    if out is None:
        write(sys.stdout)
        return
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write(fh)
    print(f"wrote {path}")


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
    summary = run_experiment(config, out_dir=_out_dir(args, config),
                             dump_trees=args.dump_trees)
    print(f"wrote {summary.rows_written} result rows from "
          f"{summary.pairs_total} pairs to {summary.out_dir} "
          f"({summary.pair_technique_failures} combination failures)")
    return 0


def cmd_report(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    out = _out_dir(args, config)
    results = out / "results.csv"
    records = load_results_csv(results)
    write_reports(records, out, config.stability_threshold)
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
