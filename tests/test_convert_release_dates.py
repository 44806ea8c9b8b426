"""scripts/convert_release_dates.py: date tokens, both modes, and its errors.

The script runs in a fresh interpreter in tmp_path. On any error it
exits 1 and writes nothing, so a previous output file keeps its bytes.
It needs only the standard library: neither NumPy nor the package.
README's conversion example ends with the package's validate reading
the joined file.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from timeaware_cpdp.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convert_release_dates.py"

DATES = "project,version,release_date\nant,1.5,2002-Jul-15\nant,1.6,2003-12-18\n"
METRICS = ("project,version,class,defects,wmc\n"
           "ant,1.5,org.apache.tools.ant.Main,2,14\n"
           "ant,1.6,org.apache.tools.ant.Main,0,15\n")


def load_script():
    spec = importlib.util.spec_from_file_location("convert_release_dates", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def python(tmp_path, *args):
    """Run a fresh interpreter in tmp_path without the package on its path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)


def convert(tmp_path, *args):
    return python(tmp_path, str(SCRIPT), *args)


def write(tmp_path, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")


def test_convert_date_token():
    convert_date_token = load_script().convert_date_token
    assert convert_date_token("1999-Nov-08") == "1999-11-08"
    assert convert_date_token("2009-feb-17") == "2009-02-17"
    assert convert_date_token("2005-12-03") == "2005-12-03"
    with pytest.raises(ValueError):
        convert_date_token("Nov 8 1999")
    with pytest.raises(ValueError):
        convert_date_token("1999-Foo-08")
    assert convert_date_token("2002-7-5") == "2002-07-05"
    # a day-first or two-digit year is not the year 15, 2 or 99
    for token in ("15-Jul-02", "02-Jul-15", "99-Nov-08"):
        with pytest.raises(ValueError, match="year must have four digits"):
            convert_date_token(token)


def test_script_loads_neither_numpy_nor_the_package(tmp_path):
    probe = (f"import runpy, sys; runpy.run_path({str(SCRIPT)!r}); "
             "print(sorted({'numpy', 'timeaware_cpdp'} & set(sys.modules)))")
    done = python(tmp_path, "-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_normalize_mode(tmp_path):
    write(tmp_path, "dates.csv", DATES)
    done = convert(tmp_path, "--dates", "dates.csv", "--out", "out/fixed.csv")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "fixed.csv").read_text(
        encoding="utf-8").splitlines() == [
        "project,version,release_date", "ant,1.5,2002-07-15",
        "ant,1.6,2003-12-18"]


def test_merge_mode_inserts_the_date_column_third(tmp_path):
    write(tmp_path, "dates.csv", DATES)
    write(tmp_path, "classes.csv", METRICS)
    done = convert(tmp_path, "--dates", "dates.csv", "--metrics", "classes.csv",
                   "--out", "out/releases.csv")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "releases.csv").read_text(
        encoding="utf-8").splitlines() == [
        "project,version,release_date,class,defects,wmc",
        "ant,1.5,2002-07-15,org.apache.tools.ant.Main,2,14",
        "ant,1.6,2003-12-18,org.apache.tools.ant.Main,0,15"]


def test_readme_example_gives_a_dataset_that_validates(tmp_path, capsys):
    """README's two files in, one date written YYYY-Mon-DD; validate exits 0."""
    write(tmp_path, "dates.csv", "project,version,release_date\n"
          "ant,1.5,2002-Jul-15\nant,1.6,2003-12-18\nivy,1.4,2003-06-01\n")
    write(tmp_path, "classes.csv", "project,version,class,defects,wmc,loc\n"
          "ant,1.5,a.Main,2,14,420\nant,1.5,a.Task,0,3,80\n"
          "ant,1.6,a.Main,0,15,431\nant,1.6,a.Task,1,4,95\n"
          "ivy,1.4,i.Ivy,1,9,300\nivy,1.4,i.Dep,0,2,40\n")
    done = convert(tmp_path, "--dates", "dates.csv", "--metrics", "classes.csv",
                   "--out", "releases.csv")
    assert done.returncode == 0, done.stderr
    write(tmp_path, "convert.cfg", "dataset.path = releases.csv\n"
          "run.seed = 1\npairs.gap_buckets = 0\n")
    assert main(["validate", "--config", str(tmp_path / "convert.cfg")]) == 0
    assert ("INFO: 3 releases from 2 projects, 6 instances"
            in capsys.readouterr().out)


@pytest.mark.parametrize("existing", [None, b"project,version\nold,1\n"])
def test_missing_date_writes_nothing(tmp_path, existing):
    write(tmp_path, "dates.csv", "project,version,release_date\n"
                                 "ant,1.5,2002-Jul-15\n")
    write(tmp_path, "classes.csv", METRICS)
    out = tmp_path / "out" / "releases.csv"
    if existing is not None:
        out.parent.mkdir()
        out.write_bytes(existing)
    done = convert(tmp_path, "--dates", "dates.csv", "--metrics", "classes.csv",
                   "--out", "out/releases.csv")
    assert done.returncode == 1
    assert "no release date for: ant/1.6" in done.stderr
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


@pytest.mark.parametrize("dates, metrics, message", [
    (DATES, METRICS.replace(",2,14\n", ",2,14,7\n"),
     "classes.csv line 2: 6 fields, header has 5"),
    (DATES.replace(",2002-Jul-15\n", "\n"), METRICS,
     "dates.csv line 2: 2 fields, header has 3"),
    (DATES, METRICS.replace(",0,15\n", ",0\n"),
     "classes.csv line 3: 4 fields, header has 5"),
    (DATES, "project,version,class,defects,wmc,wmc\n"
            "ant,1.5,org.apache.tools.ant.Main,2,14,99\n",
     "classes.csv line 1: column 'wmc' appears twice"),
    (DATES.replace("2002-Jul-15", "15-Jul-02"), METRICS,
     "dates.csv line 2: year must have four digits: '15-Jul-02'"),
], ids=["extra-field", "missing-date-field", "short-row", "repeated-column",
        "day-first-date"])
def test_malformed_rows_exit_one_and_keep_the_output(tmp_path, dates, metrics,
                                                     message):
    """A ragged row, a repeated column or a day-first date (not the year
    15) names its line and writes nothing."""
    write(tmp_path, "dates.csv", dates)
    write(tmp_path, "classes.csv", metrics)
    out = tmp_path / "out" / "releases.csv"
    out.parent.mkdir()
    out.write_bytes(b"project,version\nold,1\n")
    done = convert(tmp_path, "--dates", "dates.csv", "--metrics", "classes.csv",
                   "--out", "out/releases.csv")
    assert done.returncode == 1
    assert done.stderr == message + "\n"
    assert out.read_bytes() == b"project,version\nold,1\n"
    assert os.listdir(out.parent) == ["releases.csv"]


def test_conflicting_dates_exit_one(tmp_path):
    write(tmp_path, "dates.csv", DATES + "ant,1.5,2002-07-16\n")
    done = convert(tmp_path, "--dates", "dates.csv", "--out", "fixed.csv")
    assert done.returncode == 1
    assert "conflicting dates for ant/1.5" in done.stderr
    assert not (tmp_path / "fixed.csv").exists()


def test_date_errors_name_physical_lines(tmp_path):
    """A quoted cell with a line break moves the later rows' lines."""
    write(tmp_path, "dates.csv", 'project,version,release_date\n'
          '"ant\nx",1.5,2002-Jul-15\nant,1.6,2003-13-01\n')
    done = convert(tmp_path, "--dates", "dates.csv", "--out", "fixed.csv")
    assert done.returncode == 1
    assert done.stderr == "dates.csv line 4: month must be in 1..12\n"
    assert not (tmp_path / "fixed.csv").exists()


@pytest.mark.parametrize("mode", ["normalize", "merge"])
def test_cell_over_the_csv_field_limit_exits_one(tmp_path, mode):
    """A cell longer than the csv module's limit is a one-line error."""
    long_class = "ant,1.6," + "C" * 140000 + ",0,15\n"
    if mode == "normalize":
        write(tmp_path, "dates.csv", DATES + "ant,1.7," + "D" * 140000 + "\n")
        args = ("--dates", "dates.csv", "--out", "fixed.csv")
        path = "dates.csv"
    else:
        write(tmp_path, "dates.csv", DATES)
        write(tmp_path, "classes.csv", METRICS + long_class)
        args = ("--dates", "dates.csv", "--metrics", "classes.csv",
                "--out", "fixed.csv")
        path = "classes.csv"
    done = convert(tmp_path, *args)
    assert done.returncode == 1
    assert done.stderr == (f"{path} line 4: field larger than field limit "
                           "(131072)\n")
    assert not (tmp_path / "fixed.csv").exists()


@pytest.mark.parametrize("case", ["missing-dates", "missing-metrics",
                                  "out-is-a-directory", "not-utf8"])
def test_unreadable_files_exit_one_naming_the_path(tmp_path, case):
    """A file that cannot be read or written is a one-line error, no traceback."""
    write(tmp_path, "dates.csv", DATES)
    write(tmp_path, "classes.csv", METRICS)
    out = tmp_path / "out" / "releases.csv"
    out.parent.mkdir()
    dates, metrics, path = "dates.csv", "classes.csv", "out/releases.csv"
    if case == "missing-dates":
        dates = path = "missing.csv"
    elif case == "missing-metrics":
        metrics = path = "missing.csv"
    elif case == "not-utf8":
        (tmp_path / "classes.csv").write_bytes(
            METRICS.encode("utf-8").replace(b"Main,0", b"M\xe4in,0"))
        path = "classes.csv"
    if case == "out-is-a-directory":
        out.mkdir()
        (out / "kept.csv").write_bytes(b"project,version\nold,1\n")
    else:
        out.write_bytes(b"project,version\nold,1\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    done = convert(tmp_path, "--dates", dates, "--metrics", metrics,
                   "--out", "out/releases.csv")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1 and path in done.stderr
    assert done.stdout == ""
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")
            if p.is_file()} == before
    assert os.listdir(out.parent) == ["releases.csv"]
