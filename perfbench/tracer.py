"""Span tracing around the layer calls that ``runner`` makes.

``runner`` binds the public functions of the other modules as its own
attributes, so replacing those attributes with timing wrappers records
every call from the experiment into a layer without changing the
program. A span is (id, parent id, name, thread, start, end); spans stay
in memory and are written once, when the traced run ends. Counts that
describe the work of a layer are taken at the same boundaries, after the
span's end time is read, so computing them is not charged to the layer.

``layer_metrics`` turns the spans and counts of one traced run into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import hashlib
import itertools
import statistics
import threading
import time

# span name -> layer (the package module the work belongs to)
LAYERS = {
    "run_experiment": "runner",
    "load_dataset": "runner",
    "build_tasks": "runner",
    "write_results_csv": "runner",
    "parse_dataset": "dataset",
    "bucketize": "dataset",
    "enumerate_pairs": "pairs",
    "crossval_pairs": "pairs",
    "assemble_pair": "treatments",
    "apply_treatment": "treatments",
    "watanabe08": "treatments",
    "camargocruz09": "treatments",
    "ma12": "treatments",
    "amasaki15": "treatments",
    "nam15": "treatments",
    "train_tree": "tree",
    "evaluate_pair": "metrics",
    "undersample": "stability",
    "write_reports": "stability",
}
TECHNIQUES = ("watanabe08", "camargocruz09", "ma12", "amasaki15", "nam15")
MB = 1 << 20


class Tracer:
    """Collects spans and counts from wrapped ``runner`` attributes."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.counts: dict[str, float] = {}
        self.fit_ms: list[float] = []
        self.fit_inputs: set[bytes] = set()
        self._ids = itertools.count(1)
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._leaf_count = None

    def install(self, runner) -> None:
        """Replace every traced attribute of the runner module."""
        from timeaware_cpdp.tree import leaf_count
        self._leaf_count = leaf_count
        for name in LAYERS:
            if name != "run_experiment":
                setattr(runner, name, self._wrap(name, getattr(runner, name)))

    def run_root(self, func, *args, **kwargs):
        """Call the experiment entry point as the root span."""
        return self._wrap("run_experiment", func)(*args, **kwargs)

    def _wrap(self, name, func):
        def traced(*args, **kwargs):
            stack = getattr(self._stack, "ids", None)
            if stack is None:
                stack = self._stack.ids = []
            span_id = next(self._ids)
            # pool threads start with an empty stack; their calls belong
            # to the experiment's root span
            parent = stack[-1] if stack else self._root
            if name == "run_experiment":
                self._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if (name in TECHNIQUES
                        and type(exc).__name__ == "DegenerateTreatmentError"):
                    self._add("treatments.degenerate", 1)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name,
                                   threading.get_ident(), start, end))
            self._count(name, args, result, end - start)
            return result
        return traced

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0), value)

    def _count(self, name: str, args, result, seconds: float) -> None:
        if name == "parse_dataset":
            self._add("dataset.rows", sum(len(r) for r in result))
            self._add("dataset.releases", len(result))
        elif name in ("enumerate_pairs", "crossval_pairs"):
            self._add("pairs.count", len(result))
            self._add("pairs.train_rows",
                      sum(len(r) for p in result for r in p.train))
            self._add("pairs.test_rows",
                      sum(len(r) for p in result for r in p.test))
        elif name in TECHNIQUES:
            self._add("treatments.rows_in", args[0].n_train)
            self._add("treatments.rows_out", result.n_train)
            if name == "amasaki15":
                # amasaki15 forms a train x test float64 distance matrix
                self._max("treatments.amasaki15.dist_mb_max",
                          args[0].n_train * args[0].n_test * 8 / MB)
        elif name == "train_tree":
            treated = args[0]
            digest = hashlib.sha256()
            for array in (treated.train_features, treated.train_labels,
                          treated.train_weights):
                digest.update(repr(array.shape).encode())
                digest.update(array.tobytes())
            leaves = self._leaf_count(result)
            with self._lock:
                self.fit_inputs.add(digest.digest())
                self.fit_ms.append(seconds * 1000.0)
            self._add("tree.fits", 1)
            self._add("tree.train_rows", treated.n_train)
            self._add("tree.leaves", leaves)
        elif name == "evaluate_pair":
            self._add("metrics.rows_scored", args[1].n_test)
            self._add("metrics.versions_scored", len(result))
            self._add("metrics.auc_degenerate",
                      sum(1 for v in result if v.auc_degenerate))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "fit_ms": self.fit_ms,
                "unique_fits": len(self.fit_inputs)}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _union_length(
                [(max(s, start), min(e, end)) for s, e in children.get(sid, [])
                 if min(e, end) > max(s, start)])
            for sid, _, _, _, start, end in spans}


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict[str, float]]:
    """(times, counts) of one traced run, keyed by per-layer metric name.

    Times are busy seconds summed over threads, so on a multi-threaded
    run they include time spent waiting for the interpreter lock. A
    layer's ``self_s`` is the time of its spans that no child span
    covers; ``runner.self_s`` is the orchestration no traced call covers
    (results writing is reported on its own as ``runner.results_write_s``).
    Under-sampling has no metric of its own, since it would read exactly 0
    on every run of a workload that does not under-sample; it counts into
    ``stability.self_s`` next to ``stability.reports_s``. Sizes in MB are
    in units of 2**20 bytes.
    """
    spans = [tuple(s) for s in trace["spans"]]
    own = self_times(spans)
    busy: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for sid, _, name, _, start, end in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        layer = LAYERS[name]
        if name != "write_results_csv":
            layer_self[layer] = layer_self.get(layer, 0.0) + own[sid]

    times = {
        "trace.run_s": busy["run_experiment"],
        "dataset.parse_s": busy.get("parse_dataset", 0.0),
        "dataset.bucketize_s": busy.get("bucketize", 0.0),
        "pairs.enumerate_s": (busy.get("enumerate_pairs", 0.0)
                              + busy.get("crossval_pairs", 0.0)),
        "treatments.assemble_s": busy.get("assemble_pair", 0.0),
        **{f"treatments.{t}_s": busy.get(t, 0.0) for t in TECHNIQUES},
        "tree.fit_s": busy.get("train_tree", 0.0),
        "metrics.eval_s": busy.get("evaluate_pair", 0.0),
        "stability.reports_s": busy.get("write_reports", 0.0),
        "runner.results_write_s": busy.get("write_results_csv", 0.0),
        **{f"{layer}.self_s": layer_self.get(layer, 0.0)
           for layer in ("runner", "dataset", "pairs", "treatments", "tree",
                         "metrics", "stability")},
    }

    counts = dict(trace["counts"])
    rows_in = counts.pop("treatments.rows_in", 0)
    rows_out = counts.pop("treatments.rows_out", 0)
    counts["treatments.rows_kept_frac"] = rows_out / rows_in if rows_in else 0.0
    counts.setdefault("treatments.degenerate", 0)
    counts.setdefault("treatments.amasaki15.dist_mb_max", 0.0)
    counts.setdefault("metrics.auc_degenerate", 0)
    fits = counts.get("tree.fits", 0)
    counts["tree.unique_fit_frac"] = trace["unique_fits"] / fits if fits else 0.0
    times["metrics.us_per_row"] = (
        times["metrics.eval_s"] / counts["metrics.rows_scored"] * 1e6
        if counts.get("metrics.rows_scored") else 0.0)
    return times, counts


def fit_percentiles(fit_ms: list[float]) -> dict[str, float]:
    """Median and 95th percentile of single tree fits, in milliseconds."""
    cuts = statistics.quantiles(fit_ms, n=20, method="inclusive")
    return {"tree.fit_ms.p50": statistics.median(fit_ms),
            "tree.fit_ms.p95": cuts[18]}
