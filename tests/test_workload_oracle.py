"""The benchmark's three workload inputs through the walk and through the record path.

``demo`` is scripts/make_demo.py at its default seed; ``history`` and
``future`` are perfbench/corpus.py's specs at the benchmark's default
seed, 1. Each runs through ``runner.run_experiment``, which streams
results.csv and reports from score blocks, and through
``runner_oracle.run_experiment``, which fits every pair on its own and
writes results.csv and the reports from one record per row
(report_oracle.py). results.csv, manifest.json and the four reports
must be the same bytes, and the reports rebuilt from results.csv alone
must be too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import runner_oracle as oracle
from e2e import make_demo
from timeaware_cpdp.config import ExperimentConfig
from timeaware_cpdp.runner import run_experiment
from timeaware_cpdp.stability import load_results_csv, write_reports

ROOT = Path(__file__).resolve().parents[1]
REPORTS = ("stability.csv", "ranks.csv", "comparisons.csv", "plotdata.csv")
OUTPUTS = ("results.csv", "manifest.json", *REPORTS)
BENCHMARK_SEED = 1
MAKE_DEMO_SEED = 7


def perfbench_corpus():
    """perfbench/corpus.py, imported from its file under its own module name."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "corpus.py")
        # dataclasses looks the module up while the class is built
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def write_inputs(workload: str, dest: Path) -> Path:
    """The workload's dataset and config, as perfbench/run.py makes them."""
    if workload == "demo":
        make_demo(dest, seed=MAKE_DEMO_SEED)
    else:
        corpus = perfbench_corpus()
        csv_text, config_text = corpus.generate(corpus.SPECS[workload],
                                                BENCHMARK_SEED)
        dest.mkdir()
        (dest / "releases.csv").write_text(csv_text, encoding="utf-8")
        (dest / "experiment.cfg").write_text(config_text, encoding="utf-8")
    return dest / "experiment.cfg"


@pytest.mark.parametrize("workload", ["demo", "history", "future"])
def test_workload_outputs_match_the_record_path(tmp_path, workload):
    cfg = ExperimentConfig.from_file(write_inputs(workload, tmp_path / "input"))
    run_experiment(cfg, out_dir=tmp_path / "walk")
    oracle.run_experiment(cfg, out_dir=tmp_path / "oracle")
    walk = {name: (tmp_path / "walk" / name).read_bytes() for name in OUTPUTS}
    expected = {name: (tmp_path / "oracle" / name).read_bytes()
                for name in OUTPUTS}
    assert walk == expected

    rebuilt = tmp_path / "rebuilt"
    rebuilt.mkdir()
    write_reports(load_results_csv(tmp_path / "walk" / "results.csv"), rebuilt,
                  cfg.stability_threshold)
    assert {name: (rebuilt / name).read_bytes() for name in REPORTS} == {
        name: expected[name] for name in REPORTS}
