"""Dataset parsing, bucketing and summary."""

import random
from datetime import date

import pytest

from timeaware_cpdp.dataset import (DatasetSchema, add_months, bucketize,
                                    dataset_summary, month_start,
                                    parse_dataset)
from timeaware_cpdp.errors import (ConflictError, EmptyDatasetError,
                                   ParseError)

from synth import random_dataset, simple_release

CSV_HEADER = "project,version,release_date,class,defects,m1,m2\n"


def test_parse_groups_rows_into_releases():
    text = CSV_HEADER + (
        "alpha,1.0,2005-03-15,A,0,1.5,2.0\n"
        "alpha,1.0,2005-03-15,B,2,0.5,1.0\n"
        "beta,2.0,2006-07-01,C,1,3.0,4.0\n")
    releases = parse_dataset(text)
    assert [(r.project_id, r.version_id) for r in releases] == [
        ("alpha", "1.0"), ("beta", "2.0")]
    alpha = releases[0]
    assert alpha.release_date == date(2005, 3, 15)
    assert [rec.defective for rec in alpha.records] == [False, True]
    assert alpha.records["features"].tolist() == [[1.5, 2.0], [0.5, 1.0]]


def test_parse_sorts_releases_by_date_then_identity():
    text = CSV_HEADER + (
        "late,1,2009-01-01,A,0,1,1\n"
        "early,1,2001-01-01,A,0,1,1\n"
        "mid,1,2005-01-01,A,0,1,1\n")
    releases = parse_dataset(text)
    assert [r.project_id for r in releases] == ["early", "mid", "late"]


def test_parse_features_default_to_all_remaining_columns():
    releases = parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,0,7,8\n")
    assert releases[0].records["features"].tolist() == [[7.0, 8.0]]
    # explicit subset
    schema = DatasetSchema(feature_cols=("m2",))
    releases = parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,0,7,8\n", schema)
    assert releases[0].records["features"].tolist() == [[8.0]]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,0,7\n")
    assert err.value.line == 2

    with pytest.raises(ParseError, match="not an ISO date"):
        parse_dataset(CSV_HEADER + "a,1,01/02/2001,A,0,7,8\n")

    with pytest.raises(ParseError, match="not a number"):
        parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,0,x,8\n")

    with pytest.raises(ParseError, match="non-finite"):
        parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,0,nan,8\n")

    with pytest.raises(ParseError, match="negative"):
        parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,-1,7,8\n")

    with pytest.raises(ParseError, match="missing columns"):
        parse_dataset("project,version\n")

    # a quoted cell with a line break: errors name physical lines
    with pytest.raises(ParseError) as err:
        parse_dataset(CSV_HEADER + 'a,1,2001-01-01,"A\nB",0,7,8\n'
                      "a,1,2001-01-01,C,x,7,8\n")
    assert str(err.value) == "line 4: column 'defects': not an integer: 'x'"


# int and float alone take each of these: "\u0663" is an Arabic-Indic
# three, "\uff11" a fullwidth one, and "_" groups digits
@pytest.mark.parametrize("defects,m1,message", [
    ("\u0663", "7", "column 'defects': not an integer: '\u0663'"),
    ("1_0", "7", "column 'defects': not an integer: '1_0'"),
    ("0", "1_000", "column 'm1': not a number: '1_000'"),
    ("0", "\u0663", "column 'm1': not a number: '\u0663'"),
    ("0", "\uff11.5", "column 'm1': not a number: '\uff11.5'"),
    ("0", "1e1_0", "column 'm1': not a number: '1e1_0'")])
def test_parse_takes_only_ascii_numbers_without_underscores(defects, m1, message):
    with pytest.raises(ParseError) as err:
        parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,0,7,8\n"
                      + f"a,1,2001-01-01,B,{defects},{m1},8\n")
    assert str(err.value) == f"line 3: {message}"


def test_parse_keeps_the_ascii_number_forms_and_their_messages():
    releases = parse_dataset(CSV_HEADER + "a,1,2001-01-01,A, +3 ,1e3,-.5\n")
    assert releases[0].records["defective"].tolist() == [True]
    assert releases[0].records["features"].tolist() == [[1000.0, -0.5]]
    for m1, message in (("inf", "non-finite value"), ("NaN", "non-finite value"),
                        ("x", "not a number: 'x'")):
        with pytest.raises(ParseError) as err:
            parse_dataset(CSV_HEADER + f"a,1,2001-01-01,A,0,{m1},8\n")
        assert str(err.value) == f"line 2: column 'm1': {message}"


# both parse with date.fromisoformat on Python 3.11 but not on 3.10
@pytest.mark.parametrize("raw", ["20020715", "2003-W02-1"])
def test_parse_accepts_only_yyyy_mm_dd(raw):
    with pytest.raises(ParseError, match="not an ISO date") as err:
        parse_dataset(CSV_HEADER + f"a,1,{raw},A,0,7,8\n")
    assert err.value.line == 2


@pytest.mark.parametrize("header,column", [
    # the second wmc used to shadow the first: features (2.0, 2.0)
    ("project,version,release_date,class,defects,wmc,wmc", "wmc"),
    # the second project used to replace the project id
    ("project,version,release_date,class,defects,project,wmc", "project")])
def test_parse_rejects_a_repeated_header_name(header, column):
    with pytest.raises(ParseError, match=f"column '{column}' appears twice") as err:
        parse_dataset(f"{header}\na,1,2001-01-01,A,0,1,2\n")
    assert err.value.line == 1


@pytest.mark.parametrize("feature_cols,message", [
    (("m1", "m1"), "feature column 'm1' is listed twice"),
    # the defect count is the label; it must not become a feature
    (("m1", "defects"), "feature column 'defects' is an identity column"),
    (("project",), "feature column 'project' is an identity column")])
def test_parse_rejects_bad_feature_cols(feature_cols, message):
    schema = DatasetSchema(feature_cols=feature_cols)
    with pytest.raises(ParseError, match=message) as err:
        parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,0,7,8\n", schema)
    assert err.value.line == 1


@pytest.mark.parametrize("roles,message", [
    # with feature_cols, the class id used to be the project id
    ({"class_col": "project", "feature_cols": ("m1",)},
     "project_col and class_col both name column 'project'"),
    # without, the unused class column used to fail as "not a number"
    ({"class_col": "project"},
     "project_col and class_col both name column 'project'"),
    # the version used to fail as "not an ISO date"
    ({"date_col": "version"},
     "version_col and date_col both name column 'version'")])
def test_parse_rejects_two_identity_roles_on_one_column(roles, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_dataset(CSV_HEADER + "a,1,2001-01-01,A,0,7,8\n",
                      DatasetSchema(**roles))
    assert err.value.line == 1


def test_parse_conflicting_release_dates():
    text = CSV_HEADER + (
        "a,1,2001-01-01,A,0,1,1\n"
        "a,1,2001-06-01,B,0,1,1\n")
    with pytest.raises(ConflictError) as err:
        parse_dataset(text)
    assert err.value.line == 3
    assert isinstance(err.value, ParseError)
    assert str(err.value) == ("line 3: release a/1 has conflicting dates "
                              "2001-01-01 and 2001-06-01")


def test_parse_empty_inputs():
    with pytest.raises(EmptyDatasetError):
        parse_dataset("")
    with pytest.raises(EmptyDatasetError):
        parse_dataset(CSV_HEADER)


def test_month_arithmetic():
    assert month_start(date(1999, 11, 8)) == date(1999, 11, 1)
    assert add_months(date(1999, 11, 1), 6) == date(2000, 5, 1)
    assert add_months(date(2000, 12, 1), 1) == date(2001, 1, 1)
    assert add_months(date(2000, 1, 1), 25) == date(2002, 2, 1)


def test_bucketize_grid_is_anchored_and_contiguous():
    releases = [
        simple_release("a", "1", date(2001, 3, 17)),
        simple_release("b", "1", date(2002, 4, 2)),
    ]
    ts = bucketize(releases, granularity_months=6)
    assert ts.buckets[0].start == date(2001, 3, 1)
    assert [b.start for b in ts.buckets] == [
        date(2001, 3, 1), date(2001, 9, 1), date(2002, 3, 1)]
    for left, right in zip(ts.buckets, ts.buckets[1:]):
        assert left.end == right.start
    # the middle bucket is empty but materialized
    assert [len(b.releases) for b in ts.buckets] == [1, 0, 1]
    assert ts.bucket_index(date(2001, 3, 1)) == 0
    assert ts.bucket_index(date(2001, 9, 30)) == 1
    assert ts.bucket_index(date(2002, 4, 2)) == 2


def test_bucketize_order_independent():
    rng = random.Random(3)
    releases, granularity = random_dataset(rng)
    ts1 = bucketize(releases, granularity)
    shuffled = releases[:]
    rng.shuffle(shuffled)
    ts2 = bucketize(shuffled, granularity)
    assert [b.start for b in ts1.buckets] == [b.start for b in ts2.buckets]
    assert [[r.key for r in b.releases] for b in ts1.buckets] == \
           [[r.key for r in b.releases] for b in ts2.buckets]


def test_bucketize_roundtrip_multiset():
    rng = random.Random(11)
    for _ in range(20):
        releases, granularity = random_dataset(rng)
        ts = bucketize(releases, granularity)
        regathered = sorted((r for b in ts.buckets for r in b.releases),
                            key=lambda r: (r.release_date, r.project_id,
                                           r.version_id))
        assert [r.key for r in regathered] == \
               [r.key for r in sorted(releases,
                                      key=lambda r: (r.release_date,
                                                     r.project_id,
                                                     r.version_id))]
        # every release's date is inside its bucket interval
        for bucket in ts.buckets:
            for rel in bucket.releases:
                assert bucket.start <= rel.release_date < bucket.end


def test_bucketize_rejects_bad_input():
    with pytest.raises(EmptyDatasetError):
        bucketize([])
    with pytest.raises(ValueError):
        bucketize([simple_release("a", "1", date(2001, 1, 1))],
                  granularity_months=0)


def test_single_release_dataset_is_one_bucket():
    ts = bucketize([simple_release("a", "1", date(2003, 8, 9))], 6)
    assert ts.bucket_count == 1
    assert ts.buckets[0].start == date(2003, 8, 1)
    assert ts.buckets[0].end == date(2004, 2, 1)


def test_dataset_summary_counts():
    releases = [
        make_two_class_release("a", "1", date(2001, 1, 10), defective=3, clean=1),
        simple_release("b", "1", date(2001, 9, 5), n_rows=2),
    ]
    ts = bucketize(releases, granularity_months=6)
    rows = dataset_summary(ts)
    assert [r.bucket_index for r in rows] == [0, 1]
    assert rows[0].releases == 1
    assert rows[0].instances == 4
    assert rows[0].defective_pct == pytest.approx(75.0)
    assert rows[1].instances == 2


def make_two_class_release(project, version, released, defective, clean):
    rows = [((float(i), 1.0), True) for i in range(defective)]
    rows += [((float(i), 0.0), False) for i in range(clean)]
    from synth import make_release
    return make_release(project, version, released, rows)


def test_summary_empty_bucket_reports_zero_pct():
    releases = [
        simple_release("a", "1", date(2001, 1, 1)),
        simple_release("b", "1", date(2002, 1, 1)),
    ]
    rows = dataset_summary(bucketize(releases, 6))
    assert rows[1].releases == 0
    assert rows[1].instances == 0
    assert rows[1].defective_pct == 0.0
