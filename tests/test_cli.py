"""Command line behavior: subcommands, output routing, exit codes."""

import shutil
import subprocess

import pytest

from e2e import write_experiment
from timeaware_cpdp.cli import main


def test_validate_prints_diagnostics(tmp_path, capsys):
    cfg = write_experiment(tmp_path)
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "INFO: 8 releases from 7 projects, 96 instances" in out
    assert "INFO: CC: 12 pairs" in out


def test_validate_exit_one_on_dataset_error(tmp_path, capsys):
    cfg = write_experiment(tmp_path, **{"dataset.feature_cols": "f1,ghost"})
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "ERROR:" in capsys.readouterr().out


def test_run_exits_one_on_identity_feature_column(tmp_path, caplog):
    cfg = write_experiment(tmp_path, **{"dataset.feature_cols": "f1,defects"})
    assert main(["run", "--config", str(cfg)]) == 1
    assert ("line 1: feature column 'defects' is an identity column"
            in caplog.text)
    assert not (tmp_path / "out" / "results.csv").exists()


def test_summary_to_stdout_and_file(tmp_path, capsys):
    cfg = write_experiment(tmp_path)
    assert main(["summary", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bucket_index,start,end,releases,instances,defective_pct")

    out_dir = tmp_path / "s"
    assert main(["summary", "--config", str(cfg), "--out", str(out_dir)]) == 0
    text = (out_dir / "summary.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == out.splitlines()[0]


def test_pairs_to_stdout_and_file(tmp_path, capsys):
    cfg = write_experiment(tmp_path)
    assert main(["pairs", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kind,window_k,split_index,gap,")

    out_dir = tmp_path / "p"
    assert main(["pairs", "--config", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "pairs.csv").read_text(encoding="utf-8") == out


def test_run_and_report_cycle(tmp_path, capsys):
    cfg = write_experiment(tmp_path, **{"run.baseline_crossval": "3"})
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert "wrote" in capsys.readouterr().out
    for name in ("results.csv", "manifest.json", "stability.csv", "ranks.csv",
                 "comparisons.csv", "plotdata.csv"):
        assert (out_dir / name).exists(), name

    # reports can be rebuilt byte for byte from results.csv alone
    reports = ("stability.csv", "ranks.csv", "comparisons.csv", "plotdata.csv")
    before = {name: (out_dir / name).read_bytes() for name in reports}
    for name in reports:
        (out_dir / name).unlink()
    assert main(["report", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert {name: (out_dir / name).read_bytes() for name in reports} == before


def test_run_uses_config_output_dir_by_default(tmp_path):
    cfg = write_experiment(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "results.csv").exists()


def test_run_with_dump_trees(tmp_path):
    cfg = write_experiment(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir),
                 "--dump-trees"]) == 0
    assert (out_dir / "trees.txt").exists()


def test_bad_config_exits_one(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("dataset.path = x.csv\nrun.seed = 1\nwat = 9\n",
                   encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == 1


def test_empty_dataset_path_exits_one(tmp_path, caplog):
    cfg = write_experiment(tmp_path, **{"dataset.path": ""})
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "dataset.path is required" in caplog.text


def test_malformed_results_row_exits_one(tmp_path, caplog):
    cfg = write_experiment(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    results = out_dir / "results.csv"
    lines = results.read_text(encoding="utf-8").splitlines()
    fields = lines[3].split(",")
    fields[7] = "x"  # the tp count
    lines[3] = ",".join(fields)
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert f"{results}: line 4:" in caplog.text
    assert "internal error" not in caplog.text


def test_missing_config_exits_one(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_missing_dataset_exits_one(tmp_path):
    cfg = write_experiment(tmp_path)
    (tmp_path / "releases.csv").unlink()
    assert main(["run", "--config", str(cfg)]) == 1


def test_invalid_threads_exits_one(tmp_path):
    cfg = write_experiment(tmp_path)
    assert main(["run", "--config", str(cfg), "--threads", "0"]) == 1


def test_internal_error_exits_two(tmp_path, monkeypatch):
    import timeaware_cpdp.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    cfg = write_experiment(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 2


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("timeaware-cpdp")
    if exe is None:
        pytest.skip("console script not on PATH")
    cfg = write_experiment(tmp_path)
    proc = subprocess.run([exe, "validate", "--config", str(cfg)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "releases" in proc.stdout
