"""Record arrays against the per-row MetricRecord parse they replaced.

CSV files are drawn with 1-4 feature columns, 1-5 releases of 1-4 rows
each, rows of different releases interleaved, columns in any order,
blank lines, class cells with line breaks and several spellings of each
number. dataset_oracle.py parses the same text into MetricRecords and
builds each release's matrices with ``Release.arrays``; the record
arrays must give the same releases in the same order, bit-equal
features, equal labels and an equal ``dataset_summary``, or the same
error on the same line.
"""

import csv
import io
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dataset_oracle as oracle
from timeaware_cpdp.dataset import bucketize, dataset_summary, parse_dataset
from timeaware_cpdp.errors import ParseError

IDENTITY = ("project", "version", "release_date", "class", "defects")
DATES = (date(2000, 1, 9), date(2000, 3, 1), date(2001, 7, 31))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# repr, short and padded, and integer spellings of a feature value
NUMBER = (FINITE.map(repr) | FINITE.map(lambda x: f" {x:.3g} ")
          | st.integers(-10 ** 6, 10 ** 6).map(str))


@st.composite
def dataset_texts(draw):
    width = draw(st.integers(1, 4))
    keys = draw(st.lists(st.tuples(st.sampled_from("abc"),
                                   st.sampled_from(("1", "2", "10"))),
                         min_size=1, max_size=5, unique=True))
    rows = []
    for project, version in keys:
        # three dates, so releases often tie on date and order by identity
        released = draw(st.sampled_from(DATES)).isoformat()
        for _ in range(draw(st.integers(1, 4))):
            rows.append({
                "project": project, "version": version,
                "release_date": released,
                "class": draw(st.text(st.sampled_from('Ab.,"$ \n'),
                                      max_size=4)),
                "defects": str(draw(st.integers(0, 3))),
                **{f"f{i}": draw(NUMBER) for i in range(width)}})
    rows = draw(st.permutations(rows))
    header = draw(st.permutations(
        list(IDENTITY) + [f"f{i}" for i in range(width)]))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if draw(st.integers(0, 9)) == 0:
            writer.writerow([])
        writer.writerow([row[column] for column in header])
    return text.getvalue()


@settings(max_examples=300, deadline=None)
@given(dataset_texts(), st.sampled_from((1, 6, 12)))
# a quoted class cell spans lines 2-3, so the overflowing feature is on line 4
@example("project,version,release_date,class,defects,f0\n"
         'a,1,2000-01-09,"A\nB",0,1.0\n'
         "a,1,2000-01-09,C,0, 1.8e+308 \n", 6)
def test_record_arrays_match_metric_record_oracle(text, granularity):
    try:
        expected = oracle.parse_dataset(text)
    except ParseError as exc:
        # a short spelling can round past the largest float
        with pytest.raises(type(exc)) as err:
            parse_dataset(text)
        assert str(err.value) == str(exc)
        return
    actual = parse_dataset(text)
    assert [(r.key, r.release_date) for r in actual] == \
           [(r.key, r.release_date) for r in expected]
    for rel, old in zip(actual, expected):
        features, labels = old.arrays
        assert len(rel) == len(old)
        assert rel.records["features"].shape == features.shape
        assert rel.records["features"].tobytes() == features.tobytes()
        assert rel.records["defective"].tolist() == labels.tolist()
    # repr tells a NumPy scalar from the Python int or float of the oracle
    assert repr(dataset_summary(bucketize(actual, granularity))) == \
           repr(oracle.dataset_summary(bucketize(expected, granularity)))


def test_records_keep_the_row_interface_and_are_read_only():
    (rel,) = parse_dataset("project,version,release_date,class,defects,m1\n"
                           "a,1,2001-01-01,A,0,1.5\n"
                           "a,1,2001-01-01,B,2,2.5\n"
                           "a,1,2001-01-01,C,1,3.5\n")
    # what the benchmark's check reads from every release
    assert type(rel.records) is np.ndarray
    assert len(rel.records) == len(rel) == 3
    assert [bool(rec.defective) for rec in rel.records] == [False, True, True]
    assert sum(1 for rec in rel.records if rec.defective) == 2
    assert rel.records.dtype.names == ("features", "defective")
    assert not rel.records.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rel.records["features"][0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        rel.records["defective"][0] = True
