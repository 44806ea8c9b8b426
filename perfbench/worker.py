"""One measured process of the benchmark; started by run.py, not by hand.

    worker.py setup CONFIG
        import the package, parse the config, load and bucketize the
        dataset and enumerate the pairs (the work of
        ``timeaware-cpdp pairs``), then print the monotonic clock at that
        point, the pair list and its invariant violations as JSON.
    worker.py run CONFIG OUT THREADS
        call ``run_experiment`` once and print its wall time, CPU time
        and peak resident memory as JSON.
    worker.py trace CONFIG OUT THREADS SPANS
        the same run with every layer call traced; spans and counts are
        written to SPANS when the run ends.
"""

import time  # first, so that set-up time includes every other import
import json
import resource
import sys
from pathlib import Path

from timeaware_cpdp import runner
from timeaware_cpdp.config import ExperimentConfig


def _setup(config_path: str) -> dict:
    config = ExperimentConfig.from_file(config_path)
    releases, ts = runner.load_dataset(config)
    tasks = runner.build_tasks(config, ts, releases)
    ready = time.monotonic()

    import check
    return {
        "ready": ready,
        "pairs": check.describe_pairs(tasks),
        "violations": check.pair_violations(tasks, ts),
        "techniques": list(config.techniques),
        "sizes": {"classes": sum(len(r) for r in releases),
                  "releases": len(releases),
                  "buckets": ts.bucket_count,
                  "pairs": len(tasks),
                  "fits": len(tasks) * len(config.techniques)},
    }


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run(config_path: str, out: str, threads: int, spans_path: str | None) -> dict:
    config = ExperimentConfig.from_file(config_path)
    call = runner.run_experiment
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(runner)
        call = lambda *a, **k: tracer.run_root(runner.run_experiment, *a, **k)

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    call(config, out_dir=Path(out), threads=threads)
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0

    if tracer is not None:
        Path(spans_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return {"run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": _peak_rss_kib() / 1024}


def _peak_rss_kib() -> int:
    """Peak resident memory of this process plus its largest child, in KiB.

    Not ru_maxrss for this process: Linux carries the high-water mark of
    the address space that exec replaced into it, so it would report
    the peak of the benchmark process that started this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = _setup(argv[1])
    elif mode in ("run", "trace"):
        result = _run(argv[1], argv[2], int(argv[3]),
                      argv[4] if mode == "trace" else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
