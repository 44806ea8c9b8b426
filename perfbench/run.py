#!/usr/bin/env python3
"""Benchmark of the ``timeaware-cpdp run`` experiment.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 40 --trace 0

Run from the repository root. The benchmark generates the workload's
input from the seed, then measures in fresh processes: set-up (import,
config, dataset load, pair enumeration; repeated, median reported) and
as many ``run_experiment`` calls as fit in ``--seconds`` (median
reported). Every run's ``results.csv`` and manifest are checked (see
check.py). With ``--trace 1`` runs alternate between untraced and traced
(see tracer.py) and the per-layer metrics are reported instead, with the
tracing overhead. The last line of output is one JSON object.

Workloads (closed loop, one experiment at a time):

* ``demo``: ``scripts/make_demo.py`` with its default seed and config,
  the quick-start path; the only one with the cross-validation baseline.
  Its input does not depend on ``--seed``: make_demo's seed moves the
  pair count between 24 and 104, which would make the timing measure
  the seed instead of the program.
* ``history``: short-lived projects, 20 metrics, IC and II, 2 threads;
  tree fitting dominates and most fit inputs repeat.
* ``future``: growing releases, rare defects, under-sampling, CI, 4 of
  20 metrics; per-row prediction dominates and every fit input differs.

``--workload all`` runs the three in turn. ``--record`` writes the
reference ``results.csv`` of a workload and seed from one run at
``--threads 1``.
"""

from __future__ import annotations

import argparse
import json
import lzma
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

THREADS = {"demo": 1, "history": 2, "future": 1}
SETUP_REPEATS = 3
SETUP_REPEATS_PER_RUN = 2
# a stuck child must not keep the benchmark past its 180 s limit
CHILD_TIMEOUT_S = 60
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
COUNT_UNITS = {
    "dataset.rows": "count", "dataset.releases": "count",
    "pairs.count": "count", "pairs.train_rows": "count",
    "pairs.test_rows": "count", "treatments.rows_kept_frac": "ratio",
    "treatments.degenerate": "count", "treatments.amasaki15.dist_mb_max": "MB",
    "tree.fits": "count", "tree.train_rows": "count", "tree.leaves": "count",
    "tree.unique_fit_frac": "ratio", "metrics.rows_scored": "count",
    "metrics.versions_scored": "count", "metrics.auc_degenerate": "count",
}


class BenchmarkError(Exception):
    """The benchmark could not measure: missing program, failed child."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another benchmark process still works there


def reference_path(workload: str, seed: int) -> Path:
    # the seed changes the results only through under-sampling, which
    # draws from the run seed; other workloads have one reference
    spec = corpus.SPECS.get(workload)
    name = f"{workload}-{seed}" if spec and spec.balance else workload
    return REFERENCE_DIR / f"{name}.csv.xz"


def make_inputs(workload: str, seed: int, dest: Path) -> Path:
    """Write the workload's dataset and config into dest; return the config."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "demo":
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "make_demo.py"),
             "--out", str(dest)],
            check=True, capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    else:
        csv_text, config_text = corpus.generate(corpus.SPECS[workload], seed)
        (dest / "releases.csv").write_text(csv_text, encoding="utf-8")
        (dest / "experiment.cfg").write_text(config_text, encoding="utf-8")
    return dest / "experiment.cfg"


@dataclass
class Outcome:
    """Combinations checked and failed, and every problem found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Plan:
    """Inputs and expectations of one workload at one seed."""

    config: Path
    work: Path
    pairs: list[dict]
    techniques: list[str]
    sizes: dict
    reference: str | None


def measure_setup(config: Path, repeats: int,
                  report: dict | None = None) -> tuple[list[float], dict]:
    """Set-up times of fresh processes and the first one's pair report.

    Every process must enumerate the same pairs as ``report``, when given.
    """
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        result = _worker(["setup", str(config)])
        times.append(result["ready"] - start)
        if report is None:
            report = result
        elif result["pairs"] != report["pairs"]:
            raise BenchmarkError("pair enumeration differs between processes")
    return times, report


def run_once(plan: Plan, threads: int, traced: bool,
             outcome: Outcome) -> dict:
    """One run_experiment process; its outputs are checked into outcome."""
    out = plan.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = [str(plan.config), str(out), str(threads)]
    spans = plan.work / "spans.json"
    result = _worker(["trace", *args, str(spans)] if traced else ["run", *args])
    checked = check.check_run(
        (out / "results.csv").read_text(encoding="utf-8"),
        json.loads((out / "manifest.json").read_text(encoding="utf-8")),
        plan.pairs, plan.techniques, plan.reference)
    outcome.attempted += checked.attempted
    outcome.failed += len(checked.failed)
    outcome.problems += checked.failed[:5] + checked.errors
    if traced:
        result["trace"] = json.loads(spans.read_text(encoding="utf-8"))
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    try:
        config = make_inputs(workload, seed, work / "input")
        start = time.monotonic()
        setup_times, report = measure_setup(config, SETUP_REPEATS)
        ref_file = reference_path(workload, seed)
        plan = Plan(
            config=config, work=work,
            pairs=report["pairs"], techniques=report["techniques"],
            sizes=report["sizes"],
            reference=(lzma.decompress(ref_file.read_bytes()).decode("utf-8")
                       if ref_file.exists() else None))
        outcome = Outcome()
        outcome.problems += report["violations"]

        plain: list[dict] = []
        traced: list[dict] = []
        while True:
            began = time.monotonic()
            # set-ups are spread over the run, so that their median, like
            # that of the runs, covers the whole measured period
            setup_times += measure_setup(config, SETUP_REPEATS_PER_RUN,
                                         report)[0]
            # traced and untraced runs take turns going first, so that
            # neither always follows the set-up processes
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for is_traced in order if trace else (False,):
                (traced if is_traced else plain).append(
                    run_once(plan, THREADS[workload], is_traced, outcome))
            last = time.monotonic() - began
            if time.monotonic() - start + last > seconds:
                break
    finally:
        _remove(work)

    print(f"sizes: " + " ".join(f"{k}={v}" for k, v in plan.sizes.items()))
    print(f"reference: {ref_file.name if plan.reference is not None else 'none'}"
          f"; runs checked: {len(plain) + len(traced)}"
          f"; failed_frac: {outcome.failed / outcome.attempted!r} ratio"
          f" ({outcome.failed}/{outcome.attempted} combinations)")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}")

    if not trace:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            **{name: _metric(statistics.median(r[name] for r in plain), unit)
               for name, unit in END_TO_END_UNITS.items() if name != "setup_s"},
        }
        samples = f"setup x{len(setup_times)}, run x{len(plain)}"
    else:
        metrics = layer_report(traced, plain)
        samples = f"traced x{len(traced)}, untraced x{len(plain)}"
    print("samples: setup_s " + " ".join(f"{t:.4f}" for t in setup_times)
          + " | run_s " + " ".join(f"{r['run_s']:.4f}" for r in plain)
          + (" | traced run_s " + " ".join(
              f"{tracer.layer_metrics(t['trace'])[0]['trace.run_s']:.4f}"
              for t in traced) if trace else ""))
    print(f"{workload} (seed {seed}, medians of {samples}):")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")

    counts_repeat = not trace or all(
        tracer.layer_metrics(t["trace"])[1]
        == tracer.layer_metrics(traced[0]["trace"])[1] for t in traced)
    if not counts_repeat:
        print("check failed: traced counts differ between runs")
    return {"correct": not outcome.problems and counts_repeat,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def layer_report(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics of the traced runs: median times, first counts."""
    per_run = [tracer.layer_metrics(t["trace"]) for t in traced]
    metrics = {}
    for name in per_run[0][0]:
        unit = "us" if name == "metrics.us_per_row" else "s"
        metrics[name] = _metric(statistics.median(t[name] for t, _ in per_run),
                                unit)
    fit_ms = [ms for t in traced for ms in t["trace"]["fit_ms"]]
    for name, value in tracer.fit_percentiles(fit_ms).items():
        metrics[name] = _metric(value, "ms")
    for name, value in sorted(per_run[0][1].items()):
        metrics[name] = _metric(value, COUNT_UNITS[name])
    metrics["trace.overhead_s"] = _metric(
        metrics["trace.run_s"]["value"]
        - statistics.median(r["run_s"] for r in plain), "s")
    return metrics


def environment() -> str:
    """nproc, Python, NumPy, BLAS library and its thread count."""
    import ctypes
    import glob

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        numpy.__file__)), "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(lib), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = str(func())
                break
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} blas={blas['name']} "
            f"{blas.get('version', '')} blas_threads={threads}")


def record(workload: str, seed: int) -> Path:
    """Write the reference results.csv of one workload and seed."""
    work = WORK_DIR / f"record-{workload}-{seed}-{os.getpid()}"
    try:
        config = make_inputs(workload, seed, work / "input")
        _, report = measure_setup(config, 1)
        plan = Plan(config, work, report["pairs"],
                    report["techniques"], report["sizes"], None)
        outcome = Outcome()
        outcome.problems += report["violations"]
        run_once(plan, 1, False, outcome)
        if outcome.problems or outcome.failed:
            raise BenchmarkError(f"reference run fails its checks: "
                                 f"{outcome.problems[:5]}")
        text = (work / "out" / "results.csv").read_bytes()
    finally:
        _remove(work)
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(lzma.compress(text, preset=9 | lzma.PRESET_EXTREME))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*THREADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the reference results for this seed")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "timeaware_cpdp" / "__init__.py",
                   ROOT / "scripts" / "make_demo.py"):
        if not needed.is_file():
            print(f"benchmark: {needed} not found; run from a checkout "
                  f"of the repository", file=sys.stderr)
            return 2
    workloads = list(THREADS) if args.workload == "all" else [args.workload]
    try:
        # the build step: byte-compile the package before anything is timed
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src")], check=True, timeout=CHILD_TIMEOUT_S)
        if args.record:
            for workload in workloads:
                print(f"wrote {record(workload, args.seed)}")
            return 0
        print(f"environment: {environment()}")
        results = {w: bench(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
