"""results.csv and pairs.csv: one column list, a lossless codec, quoted ids.

The program writes results.csv a tag at a time and reads it back as
blocks; report_oracle.py writes and reads one record per row. Both must
agree on every byte and every value.
"""

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e2e import toy_csv, write_experiment
from report_oracle import (ResultRecord, blocks_of, comparable,
                           load_results_csv as load_records,
                           write_results_csv as write_records)
from timeaware_cpdp.cli import main
from timeaware_cpdp.errors import DatasetError
from timeaware_cpdp.metrics import VersionScore
from timeaware_cpdp.stability import (RESULTS_COLUMNS, RESULTS_HEADER,
                                      _csv_line, load_results_csv,
                                      result_lines, write_results_csv)

REPORTS = ("stability.csv", "ranks.csv", "comparisons.csv", "plotdata.csv")


def test_one_column_list():
    assert RESULTS_COLUMNS == ResultRecord._fields
    assert VersionScore._fields == RESULTS_COLUMNS[5:]
    assert RESULTS_HEADER == (
        "technique,kind,window_k,split_index,gap,test_project,test_version,"
        "tp,fp,tn,fn,precision,recall,fscore,gmeasure,mcc,auc,auc_degenerate")


# text that needs quoting: separators, quotes, line breaks of every kind
TEXT = st.text(st.sampled_from('ab ,";/\n\r \x85é'), max_size=8)
COUNT = st.integers(0, 10 ** 6)
SCORE = (st.floats(allow_nan=False, allow_infinity=False)
         | st.sampled_from((-0.0, 5e-324, 1e308)))


@st.composite
def result_records(draw):
    return ResultRecord(
        draw(TEXT), draw(TEXT), draw(st.none() | st.integers(1, 10 ** 6)),
        draw(COUNT), draw(COUNT), draw(TEXT), draw(TEXT),
        *(draw(COUNT) for _ in range(4)), *(draw(SCORE) for _ in range(6)),
        draw(st.booleans()))


def program_text(records):
    """results.csv as the program writes it: each record's line under its tag."""
    fh = io.StringIO()
    fh.write(RESULTS_HEADER + "\n")
    for r in records:
        write_results_csv(fh, r[:5], result_lines([VersionScore(*r[5:])]))
    return fh.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.lists(result_records(), max_size=12))
def test_results_csv_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("codec") / "results.csv"
    write_records(path, records)
    assert path.read_bytes() == program_text(records).encode()
    # the blocks keep every report column bit for bit, -0.0 included
    assert comparable(load_results_csv(path)) == comparable(blocks_of(records))
    assert load_records(path) == records


@settings(max_examples=200, deadline=None)
@given(st.lists(result_records(), max_size=12))
def test_results_csv_lines_are_csv_line_of_each_record(records):
    # the one-f-string writer spells a row as the reports' line speller does
    assert program_text(records) == RESULTS_HEADER + "\n" + "".join(
        _csv_line(*r._replace(window_k="inf" if r.window_k is None else r.window_k))
        for r in records)


def test_results_csv_lines_of_one_tag_share_its_block(tmp_path):
    rows = [ResultRecord("t", "CC", 2, 1, 0, "p", str(v), 3, 1, 4, 2,
                         0.75, 0.6, 0.5, 0.5, 0.25, 0.5, v == 2)
            for v in range(3)]
    other = rows[0]._replace(split_index=2)
    path = tmp_path / "results.csv"
    write_records(path, [*rows, other, rows[0]])
    blocks = load_results_csv(path)
    assert [(b[:5], len(b.scores)) for b in blocks] == [
        (("t", "CC", 2, 1, 0), 3), (("t", "CC", 2, 2, 0), 1),
        (("t", "CC", 2, 1, 0), 1)]
    assert blocks[0].scores["auc_degenerate"].tolist() == [False, False, True]
    assert not blocks[0].scores.flags.writeable


def edited_results(tmp_path, column, text):
    """A two-row results.csv whose second row has text in column."""
    record = ResultRecord("t", "CC", None, 1, 0, "p", "1",
                          3, 1, 4, 2, 0.75, 0.6, 0.5, 0.5, 0.25, 0.5, False)
    path = tmp_path / "results.csv"
    write_records(path, [record, record])
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[2].split(",")
    fields[RESULTS_COLUMNS.index(column)] = text
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("column,text,message", [
    ("auc", "nan", "non-finite score 'nan'"),
    ("fscore", "inf", "non-finite score 'inf'"),
    ("mcc", "-inf", "non-finite score '-inf'"),
    ("precision", "NaN", "non-finite score 'NaN'"),
    ("tp", "-5", "negative count -5"),
    ("fn", "-1", "negative count -1")])
def test_results_csv_rejects_non_finite_scores_and_negative_counts(
        tmp_path, column, text, message):
    path = edited_results(tmp_path, column, text)
    with pytest.raises(DatasetError) as err:
        load_results_csv(path)
    assert str(err.value) == f"{path}: line 3: {message} (column {column})"


@pytest.mark.parametrize("column,text,message", [
    ("window_k", "0", "window 0 below 1"),
    ("window_k", "-3", "window -3 below 1"),
    ("split_index", "-1", "negative split -1"),
    ("gap", "-7", "negative gap -7")])
def test_results_csv_rejects_a_window_below_one_or_a_negative_split_or_gap(
        tmp_path, column, text, message):
    path = edited_results(tmp_path, column, text)
    with pytest.raises(DatasetError) as err:
        load_results_csv(path)
    assert str(err.value) == f"{path}: line 3: {message} (column {column})"


def test_results_csv_keeps_the_least_values_the_program_writes(tmp_path):
    # crossval folds start at split 0 with gap 0; time-aware windows at 1
    records = [
        ResultRecord("t", "crossval", None, 0, 0, "p", "1",
                     3, 1, 4, 2, 0.75, 0.6, 0.5, 0.5, 0.25, 0.5, False),
        ResultRecord("t", "CC", 1, 1, 0, "p", "2",
                     3, 1, 4, 2, 0.75, 0.6, 0.5, 0.5, 0.25, 0.5, False)]
    path = tmp_path / "results.csv"
    write_records(path, records)
    assert comparable(load_results_csv(path)) == comparable(blocks_of(records))


def quoted_ids_experiment(tmp_path):
    """The e2e corpus with project alpha renamed 'ant,core' and beta's version '1."0'."""
    rows = list(csv.reader(io.StringIO(toy_csv())))
    for row in rows[1:]:
        if row[0] == "alpha":
            row[0] = "ant,core"
        elif row[0] == "beta":
            row[1] = '1."0'
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    (tmp_path / "releases.csv").write_text(text.getvalue(), encoding="utf-8")
    return write_experiment(tmp_path, **{"run.baseline_crossval": "3"})


def test_quoted_ids_survive_run_report_and_pairs(tmp_path):
    cfg = quoted_ids_experiment(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg)]) == 0
    records = load_records(out / "results.csv")
    projects = {r.test_project for r in records}
    assert {"ant,core", "beta"} <= projects
    assert {r.test_version for r in records if r.test_project == "beta"} == {
        '1."0'}

    written = {name: (out / name).read_bytes() for name in REPORTS}
    for name in REPORTS:
        (out / name).unlink()
    assert main(["report", "--config", str(cfg)]) == 0
    assert {name: (out / name).read_bytes() for name in REPORTS} == written

    assert main(["pairs", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "pairs.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {6}
    versions = {v for row in rows[1:] for side in row[4:] for v in side.split(";")}
    assert {"ant,core/1.0", 'beta/1."0'} <= versions


def test_reports_quote_technique_and_kind(tmp_path):
    cfg = write_experiment(tmp_path, **{"run.baseline_crossval": "3"})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg)]) == 0
    names = {"camargocruz09": "a,b", "watanabe08": 'q"t', "CC": 'c,"c'}
    records = [r._replace(technique=names.get(r.technique, r.technique),
                          kind=names.get(r.kind, r.kind))
               for r in load_records(out / "results.csv")]
    write_records(out / "results.csv", records)
    assert main(["report", "--config", str(cfg)]) == 0
    for name in REPORTS:
        with open(out / name, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and {len(row) for row in rows} == {len(header)}, name
        columns = {column: {row[i] for row in rows}
                   for i, column in enumerate(header)}
        assert {"a,b", 'q"t'} <= columns["technique"], name
        if "kind" in columns:
            assert 'c,"c' in columns["kind"], name
