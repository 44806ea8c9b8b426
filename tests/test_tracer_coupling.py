"""The benchmark's tracer still reaches every layer call of the runner.

perfbench/tracer.py replaces attributes of timeaware_cpdp.runner by
timing wrappers, so a runner that stops looking a traced function up on
its module (a renamed function, or one bound to a local name) silently
drops that layer from the benchmark's per-layer metrics. A traced run of
the toy experiment, with under-sampling and the cross-validation
baseline on, must record a span under every name in tracer.LAYERS, count
work in the tree, pairs and metrics layers, and write the same
results.csv as an untraced run.
"""

import importlib.util
from pathlib import Path

from e2e import write_experiment
from timeaware_cpdp import runner
from timeaware_cpdp.config import ExperimentConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py as a module of its own, outside sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reaches_every_wrapped_name(tmp_path, monkeypatch):
    tracer = load_tracer()
    config = ExperimentConfig.from_file(write_experiment(
        tmp_path, **{"run.balance": "true", "run.baseline_crossval": "3"}))
    runner.run_experiment(config, out_dir=tmp_path / "plain")

    # Tracer.install sets the attributes itself; setting each to its own
    # value first lets monkeypatch restore the originals at teardown
    for name in tracer.LAYERS:
        monkeypatch.setattr(runner, name, getattr(runner, name))
    traced = tracer.Tracer()
    traced.install(runner)
    traced.run_root(runner.run_experiment, config, out_dir=tmp_path / "traced")

    trace = traced.dump()
    assert {span[2] for span in trace["spans"]} == set(tracer.LAYERS)
    _, counts = tracer.layer_metrics(trace)
    for key in ("tree.fits", "pairs.count", "metrics.versions_scored"):
        assert counts[key] > 0, key
    assert ((tmp_path / "traced" / "results.csv").read_bytes()
            == (tmp_path / "plain" / "results.csv").read_bytes())
