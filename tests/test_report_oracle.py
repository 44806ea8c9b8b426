"""The grouped report writers against the record-filtering oracle.

Random record lists, laid out the way a run writes them (pairs of each
kind in turn, the techniques of each pair, one record per test version)
and sometimes shuffled as a hand-edited results.csv may be, must give
byte-identical reports from ``stability.write_reports``, which reads
the records' blocks, and from the writers in report_oracle.py. So must
the records of a run of the quick-start demo, the one corpus here with
cross-validation comparisons from real scores.
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import report_oracle as oracle
from e2e import make_demo
from timeaware_cpdp.config import ExperimentConfig
from timeaware_cpdp.runner import run_experiment
from report_oracle import ResultRecord
from timeaware_cpdp.stability import (_csv_line, aggregate, load_results_csv,
                                      write_reports)

REPORTS = ("stability.csv", "ranks.csv", "comparisons.csv", "plotdata.csv")
TECHNIQUES = ("watanabe08", "camargocruz09", "ma12", "amasaki15", "nam15",
              "identity")
KINDS = ("CC", "IC", "CI", "II", "crossval")
# few values, so techniques tie within a metric; 0.1, 1/3 and 0.7 are
# inexact in binary, so a mean depends on the order of its sum
VALUES = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 0.9, 1.0)


def record(technique, kind, window, split, version, values, degenerate):
    fscore, auc, mcc, gmeasure = values
    return ResultRecord(
        technique=technique, kind=kind, window_k=window, split_index=split,
        gap=1, test_project="p", test_version=str(version),
        tp=1, fp=1, tn=1, fn=1, precision=0.5, recall=0.5, fscore=fscore,
        gmeasure=gmeasure, mcc=mcc, auc=auc, auc_degenerate=degenerate)


@st.composite
def record_lists(draw):
    techniques = draw(st.permutations(TECHNIQUES))[:draw(st.integers(1, 6))]
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5,
                          unique=True))
    # a technique whose AUC is always degenerate has incomplete metrics
    always_degenerate = {t for t in techniques if draw(st.integers(0, 9)) == 0}
    value = st.sampled_from(VALUES)
    records = []
    for kind in kinds:
        # few baseline records keep the exact rank-sum enumeration short
        small = kind == "crossval"
        n_pairs = draw(st.integers(1, 2 if small else 4))
        for _ in range(n_pairs):
            # (window, split) may repeat: one cell then spans two pairs
            window = draw(st.sampled_from((1, 2, 3, None)))
            split = draw(st.integers(1, 2))
            present = [t for t in techniques if draw(st.integers(0, 4))]
            versions = draw(st.integers(1, 2 if small else 3))
            for tech in present:
                for version in range(versions):
                    degenerate = (tech in always_degenerate
                                  or draw(st.integers(0, 4)) == 0)
                    records.append(record(
                        tech, kind, window, split, version,
                        [draw(value) for _ in range(4)], degenerate))
    if draw(st.integers(0, 9)) < 3:
        records = draw(st.permutations(records))
    return records


def write_both(records, threshold):
    with tempfile.TemporaryDirectory() as tmp:
        expected, actual = Path(tmp, "oracle"), Path(tmp, "grouped")
        expected.mkdir()
        actual.mkdir()
        oracle.write_reports(records, expected, threshold)
        write_reports(oracle.blocks_of(records), actual, threshold)
        return ({name: (expected / name).read_bytes() for name in REPORTS},
                {name: (actual / name).read_bytes() for name in REPORTS})


# "a" is missing from the first CC pair but not from the IC pair, so the
# order of first appearance over all records (b, a) differs from the one
# within IC (a, b); the tie on every metric makes that order visible
FIRST_PAIR_GAP = [
    record("b", "CC", 1, 1, 0, [0.5] * 4, False),
    record("a", "CC", 1, 2, 0, [0.5] * 4, False),
    record("b", "CC", 1, 2, 0, [0.5] * 4, False),
    record("a", "IC", 1, 1, 0, [0.5] * 4, False),
    record("b", "IC", 1, 1, 0, [0.5] * 4, False),
]

# "a" has three CC records over two cells, in the order 0.1 (cell 1),
# 0.1 (cell 2), 0.25 (cell 1); "b" has the same values in cell 1 only.
# Summed in record order the two means tie; summed cell by cell they
# differ in the last bit (0.45 against 0.44999999999999996)
SUM_ORDER = [
    record("a", "CC", 1, 1, 0, [0.1] * 4, False),
    record("b", "CC", 1, 1, 0, [0.1] * 4, False),
    record("b", "CC", 1, 1, 1, [0.1] * 4, False),
    record("a", "CC", 1, 2, 0, [0.1] * 4, False),
    record("a", "CC", 1, 1, 1, [0.25] * 4, False),
    record("b", "CC", 1, 1, 2, [0.25] * 4, False),
]


@settings(max_examples=300, deadline=None)
@given(record_lists(), st.sampled_from((0.05, 0.2)))
@example(FIRST_PAIR_GAP, 0.05)
@example(SUM_ORDER, 0.05)
def test_reports_match_record_filtering_oracle(records, threshold):
    expected, actual = write_both(records, threshold)
    assert actual == expected


def test_first_pair_gap_example_orders_ties_globally():
    _, actual = write_both(FIRST_PAIR_GAP, 0.05)
    ranks = actual["ranks.csv"].decode().splitlines()
    assert [line.split(",")[:2] for line in ranks[1:]] == [
        ["CC", "b"], ["CC", "a"], ["IC", "b"], ["IC", "a"]]


def test_demo_run_reports_match_record_filtering_oracle(tmp_path):
    make_demo(tmp_path / "demo", seed=7)
    cfg = ExperimentConfig.from_file(tmp_path / "demo" / "experiment.cfg")
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=out)
    records = oracle.load_results_csv(out / "results.csv")
    assert {r.kind for r in records} == {"CC", "IC", "CI", "II", "crossval"}
    expected, actual = write_both(records, cfg.stability_threshold)
    assert actual == expected
    assert {name: (out / name).read_bytes() for name in REPORTS} == actual
    # the blocks report reads back from results.csv give the same bytes
    rebuilt = tmp_path / "rebuilt"
    rebuilt.mkdir()
    write_reports(load_results_csv(out / "results.csv"), rebuilt,
                  cfg.stability_threshold)
    assert {name: (rebuilt / name).read_bytes() for name in REPORTS} == actual
    # aggregate gives every row of stability.csv, in file order
    rows = aggregate(load_results_csv(out / "results.csv"),
                     cfg.stability_threshold)
    assert ([_csv_line(*dataclasses.astuple(row)) for row in rows]
            == actual["stability.csv"].decode().splitlines(True)[1:])
    # every technique is compared with the baseline on every metric
    assert len(actual["comparisons.csv"].splitlines()) == 1 + 5 * 4
