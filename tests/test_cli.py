"""Command line behavior: subcommands, output routing, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import timeaware_cpdp
from e2e import toy_csv, write_experiment
from report_oracle import comparable
from timeaware_cpdp.cli import main
from timeaware_cpdp.stability import RESULTS_COLUMNS, load_results_csv


def test_validate_prints_diagnostics(tmp_path, capsys):
    cfg = write_experiment(tmp_path)
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "INFO: 8 releases from 7 projects, 96 instances" in out
    assert "INFO: CC: 12 pairs" in out


def test_validate_exit_one_on_more_folds_than_releases(tmp_path, capsys):
    cfg = write_experiment(tmp_path, **{"run.baseline_crossval": "9"})
    assert main(["validate", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("ERROR:")] == [
        "ERROR: fold count 9 exceeds the 8 releases"]


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


def test_run_exits_one_on_two_identity_roles_on_one_column(tmp_path, caplog):
    cfg = write_experiment(tmp_path, **{"dataset.class_col": "project",
                                        "dataset.feature_cols": "f1"})
    assert main(["run", "--config", str(cfg)]) == 1
    assert ("line 1: project_col and class_col both name column 'project'"
            in caplog.text)
    assert not (tmp_path / "out" / "results.csv").exists()


def test_run_skips_overflowing_features_without_numpy_warnings(tmp_path):
    # f1 of alpha 1.0 and beta 1.0 near the float64 maximum, where the sum
    # of any two values overflows
    lines = toy_csv().splitlines()
    for row in range(1, 25):
        cells = lines[row].split(",")
        assert cells[0] in ("alpha", "beta") and cells[1] == "1.0"
        cells[5] = ("1e308", "1.5e308")[row % 2]
        lines[row] = ",".join(cells)
    (tmp_path / "releases.csv").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    cfg = write_experiment(tmp_path, **{"run.techniques": "watanabe08,nam15"})
    # a child process, so stderr shows any warning NumPy prints
    src = Path(timeaware_cpdp.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from timeaware_cpdp.cli import main; sys.exit(main())",
         "run", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert ("technique=watanabe08: watanabe08 cannot use attribute 0: "
            "its training mean overflows float64; skipped" in proc.stderr)
    assert ("technique=nam15: nam15 cannot use attribute 0: "
            "its training median overflows float64; skipped" in proc.stderr)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    skips = proc.stderr.count("; skipped")
    assert manifest["pair_technique_failures"] == skips > 0


def test_summary_to_stdout_and_file(tmp_path, capsys):
    cfg = write_experiment(tmp_path)
    assert main(["summary", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bucket_index,start,end,releases,instances,defective_pct")

    out_dir = tmp_path / "s"
    assert main(["summary", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert os.listdir(out_dir) == ["summary.csv"]
    text = (out_dir / "summary.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == out.splitlines()[0]


def test_pairs_to_stdout_and_file(tmp_path, capsys):
    cfg = write_experiment(tmp_path)
    assert main(["pairs", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kind,window_k,split_index,gap,")

    out_dir = tmp_path / "p"
    assert main(["pairs", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == f"wrote {out_dir / 'pairs.csv'}\n"
    assert os.listdir(out_dir) == ["pairs.csv"]
    assert (out_dir / "pairs.csv").read_text(encoding="utf-8") == out


def entries(out: Path) -> dict[str, bytes | None]:
    """Every entry of out: a file's bytes, or None for a directory."""
    return {path.name: None if path.is_dir() else path.read_bytes()
            for path in out.iterdir()}


def make_a_directory_of(path: Path) -> None:
    path.unlink()
    path.mkdir()


def test_run_and_report_cycle(tmp_path, capsys, caplog):
    cfg = write_experiment(tmp_path, **{"run.baseline_crossval": "3"})
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert "wrote" in capsys.readouterr().out
    names = sorted(("results.csv", "manifest.json", "stability.csv",
                    "ranks.csv", "comparisons.csv", "plotdata.csv"))
    assert sorted(os.listdir(out_dir)) == names

    # reports can be rebuilt byte for byte from results.csv alone
    reports = ("stability.csv", "ranks.csv", "comparisons.csv", "plotdata.csv")
    before = {name: (out_dir / name).read_bytes() for name in reports}
    for name in reports:
        (out_dir / name).unlink()
    assert main(["report", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert {name: (out_dir / name).read_bytes() for name in reports} == before
    assert sorted(os.listdir(out_dir)) == names

    # another seed's results, and a report that cannot move ranks.csv into
    # place: no report changes, and no staging directory is left
    write_experiment(tmp_path, seed=99, **{"run.baseline_crossval": "3"})
    reseeded = tmp_path / "reseeded"
    assert main(["run", "--config", str(cfg), "--out", str(reseeded)]) == 0
    assert (reseeded / "stability.csv").read_bytes() != before["stability.csv"]
    shutil.copy(reseeded / "results.csv", out_dir / "results.csv")
    make_a_directory_of(out_dir / "ranks.csv")
    earlier = entries(out_dir)
    assert main(["report", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert entries(out_dir) == earlier
    assert f"{out_dir / 'ranks.csv'} is a directory" in caplog.text
    assert ".run-" not in caplog.text


def test_report_reads_results_that_start_with_a_byte_order_mark(tmp_path):
    """A spreadsheet that re-saves results.csv puts a BOM in front."""
    cfg = write_experiment(tmp_path, **{"run.baseline_crossval": "3"})
    out_dir, bom_dir = tmp_path / "results", tmp_path / "resaved"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    bom_dir.mkdir()
    (bom_dir / "results.csv").write_bytes(
        b"\xef\xbb\xbf" + (out_dir / "results.csv").read_bytes())
    assert (comparable(load_results_csv(bom_dir / "results.csv"))
            == comparable(load_results_csv(out_dir / "results.csv")))
    assert main(["report", "--config", str(cfg), "--out", str(bom_dir)]) == 0
    for name in ("stability.csv", "ranks.csv", "comparisons.csv",
                 "plotdata.csv"):
        assert (bom_dir / name).read_bytes() == (out_dir / name).read_bytes()


def test_run_stdout_ends_with_the_combination_failures(tmp_path, capsys,
                                                       monkeypatch):
    from timeaware_cpdp import runner
    from timeaware_cpdp.errors import DegenerateTreatmentError

    real = runner.apply_treatment

    def flaky(name, tp, config):
        if name == "ma12":
            raise DegenerateTreatmentError("forced failure")
        return real(name, tp, config)

    monkeypatch.setattr(runner, "apply_treatment", flaky)
    cfg = write_experiment(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failures = manifest["pair_technique_failures"]
    assert failures == sum(manifest["pair_counts"].values()) > 0
    assert capsys.readouterr().out == (
        f"wrote {manifest['row_accounting']['written_rows']} result rows "
        f"from {failures} pairs to {out_dir} "
        f"({failures} combination failures)\n")

    # a skipped technique leaves its rows of each set's score array unused:
    # the techniques after it still report their own rows, as report reads
    # them back from results.csv
    reports = ("stability.csv", "ranks.csv", "comparisons.csv", "plotdata.csv")
    before = {name: (out_dir / name).read_bytes() for name in reports}
    assert b"ma12" not in before["ranks.csv"]
    assert b"nam15" in before["ranks.csv"]
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


def assert_each_edit_exits_one(tmp_path, caplog, edits):
    """report exits 1 on each (line, column, text) edit of a run's results.csv.

    The error names the line and column, and no report file is written.
    """
    cfg = write_experiment(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    reports = ("stability.csv", "ranks.csv", "comparisons.csv", "plotdata.csv")
    results = out_dir / "results.csv"
    written = results.read_text(encoding="utf-8").splitlines()
    for line, column, text in edits:
        lines = list(written)
        fields = lines[line - 1].split(",")
        fields[RESULTS_COLUMNS.index(column)] = text
        lines[line - 1] = ",".join(fields)
        results.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for name in reports:
            (out_dir / name).unlink(missing_ok=True)
        caplog.clear()
        assert main(["report", "--config", str(cfg), "--out", str(out_dir)]) == 1
        assert f"{results}: line {line}:" in caplog.text
        assert f"(column {column})" in caplog.text
        assert "internal error" not in caplog.text
        assert not any((out_dir / name).exists() for name in reports)


def test_non_finite_score_or_negative_count_exits_one(tmp_path, caplog):
    # line 3's AUC, line 4's F-score, line 5's tp
    assert_each_edit_exits_one(tmp_path, caplog, (
        (3, "auc", "nan"), (4, "fscore", "inf"), (5, "tp", "-5")))


def test_window_below_one_or_negative_split_or_gap_exits_one(tmp_path, caplog):
    assert_each_edit_exits_one(tmp_path, caplog, (
        (2, "window_k", "-3"), (3, "window_k", "0"),
        (4, "split_index", "-1"), (5, "gap", "-7")))


def test_results_csv_that_is_a_directory_exits_one(tmp_path, caplog):
    cfg = write_experiment(tmp_path)
    out_dir = tmp_path / "results"
    (out_dir / "results.csv").mkdir(parents=True)
    assert main(["report", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert "internal error" not in caplog.text


def test_out_naming_a_regular_file_exits_one(tmp_path, caplog):
    cfg = write_experiment(tmp_path)
    out_file = tmp_path / "results"
    out_file.write_text("", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(out_file)]) == 1
    assert "internal error" not in caplog.text


DECEMBER_9999 = ("project,version,release_date,class,defects,f1\n"
                 "a,1,9999-12-30,A,1,1.0\n"
                 "b,1,9999-12-31,B,0,2.0\n")


@pytest.mark.parametrize("granularity,dataset,last", [
    ("100000", None, "2002-09-30"),
    ("99999999999999999999", None, "2002-09-30"),
    ("6", DECEMBER_9999, "9999-12-31")],
    ids=["wide-buckets", "huge-buckets", "december-9999"])
def test_bucket_grid_past_year_9999_exits_one(tmp_path, capsys, caplog,
                                              granularity, dataset, last):
    if dataset is not None:
        (tmp_path / "releases.csv").write_text(dataset, encoding="utf-8")
    cfg = write_experiment(tmp_path,
                           **{"buckets.granularity_months": granularity})
    message = (f"{granularity}-month buckets up to the last release date "
               f"{last} end after 9999-12-31")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert f"ERROR: {message}" in capsys.readouterr().out
    for command in ("summary", "pairs", "run"):
        assert main([command, "--config", str(cfg)]) == 1
    assert caplog.text.count(message) == 3


def test_missing_config_exits_one(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_missing_dataset_exits_one(tmp_path):
    cfg = write_experiment(tmp_path)
    (tmp_path / "releases.csv").unlink()
    assert main(["run", "--config", str(cfg)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_ascii_digit_in_dataset_exits_one(tmp_path, caplog, capsys, command):
    cfg = write_experiment(tmp_path)
    lines = toy_csv().splitlines(keepends=True)
    # line 4 is alpha.C2, a defective class: "\u0663" is an Arabic-Indic three
    fields = lines[3].split(",")
    fields[4] = "\u0663"
    lines[3] = ",".join(fields)
    (tmp_path / "releases.csv").write_text("".join(lines), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 1
    text = caplog.text + capsys.readouterr().out
    assert "line 4: column 'defects': not an integer: '\u0663'" in text
    assert "internal error" not in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cell_over_the_csv_field_limit_exits_one(tmp_path, caplog, capsys,
                                                command):
    cfg = write_experiment(tmp_path)
    lines = toy_csv().splitlines(keepends=True)
    # line 3's class name is longer than the csv module's 131072 characters
    fields = lines[2].split(",")
    fields[3] = "C" * 140000
    lines[2] = ",".join(fields)
    (tmp_path / "releases.csv").write_text("".join(lines), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 1
    text = caplog.text + capsys.readouterr().out
    assert "line 3: field larger than field limit (131072)" in text
    assert "internal error" not in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_utf8_dataset_exits_one(tmp_path, caplog, capsys, command):
    cfg = write_experiment(tmp_path)
    data = tmp_path / "releases.csv"
    data.write_bytes(toy_csv().replace(",alpha.C0,", ",Clé0,").encode("latin-1"))
    assert main([command, "--config", str(cfg)]) == 1
    # validate prints its diagnostics, run logs the error
    text = caplog.text + capsys.readouterr().out
    assert f"cannot read dataset {data}" in text
    assert "can't decode byte" in text
    assert "internal error" not in text


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_utf8_config_exits_one(tmp_path, caplog, command):
    cfg = write_experiment(tmp_path)
    with open(cfg, "ab") as fh:
        fh.write("# Clé\n".encode("latin-1"))
    assert main([command, "--config", str(cfg)]) == 1
    assert f"cannot read config {cfg}" in caplog.text
    assert "internal error" not in caplog.text


def test_removed_threads_flag_is_a_usage_error(tmp_path, capsys):
    cfg = write_experiment(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_takes_no_out_flag(tmp_path, capsys):
    cfg = write_experiment(tmp_path)
    out = tmp_path / "elsewhere"
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --out {out}" in capsys.readouterr().err
    assert not out.exists()


def test_internal_error_exits_two(tmp_path, monkeypatch):
    import timeaware_cpdp.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    cfg = write_experiment(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 2


def failing_after_the_first_set(monkeypatch, out):
    """Make the walk raise a plain ValueError at its second set."""
    from timeaware_cpdp import runner
    real_run_set = runner._run_set
    calls = []

    def run_set(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("forced after the first set")
        return real_run_set(*args)

    monkeypatch.setattr(runner, "_run_set", run_set)
    return calls


def test_a_run_that_fails_mid_walk_publishes_no_results(tmp_path, monkeypatch,
                                                        caplog):
    cfg = write_experiment(tmp_path)
    calls = failing_after_the_first_set(monkeypatch, tmp_path / "out")
    assert main(["run", "--config", str(cfg)]) == 2
    assert len(calls) == 2
    assert "forced after the first set" in caplog.text
    # the first set's rows were written, and are gone with the file
    assert list((tmp_path / "out").iterdir()) == []


def failing_in_the_reports(monkeypatch, out):
    """Make write_reports raise a plain ValueError after its first file."""
    from timeaware_cpdp import stability
    real_write_csv = stability._write_csv

    def write_csv(*args):
        real_write_csv(*args)
        raise ValueError("forced after the first report")

    monkeypatch.setattr(stability, "_write_csv", write_csv)


def ranks_csv_is_a_directory(monkeypatch, out):
    """Put a directory where the run moves ranks.csv."""
    make_a_directory_of(out / "ranks.csv")


@pytest.mark.parametrize("failing,code,logged", [
    (failing_after_the_first_set, 2, "forced after the first set"),
    (failing_in_the_reports, 2, "forced after the first report"),
    (ranks_csv_is_a_directory, 1, "out/ranks.csv is a directory")],
    ids=["walk", "reports", "move"])
def test_a_run_that_fails_mid_walk_keeps_an_earlier_results_csv(
        tmp_path, monkeypatch, caplog, failing, code, logged):
    """A run that fails, before or at its moves, leaves every earlier file."""
    cfg = write_experiment(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--dump-trees"]) == 0
    assert sorted(os.listdir(out)) == ["comparisons.csv", "manifest.json",
                                       "plotdata.csv", "ranks.csv",
                                       "results.csv", "stability.csv",
                                       "trees.txt"]
    failing(monkeypatch, out)
    before = entries(out)
    # another seed, so the failed run's manifest differs from the first's
    write_experiment(tmp_path, seed=99)
    assert main(["run", "--config", str(cfg), "--dump-trees"]) == code
    # no staging directory left behind either, nor named in the log
    assert entries(out) == before
    assert logged in caplog.text
    assert ".run-" not in caplog.text


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("timeaware-cpdp")
    if exe is None:
        pytest.skip("console script not on PATH")
    cfg = write_experiment(tmp_path)
    proc = subprocess.run([exe, "validate", "--config", str(cfg)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "releases" in proc.stdout
