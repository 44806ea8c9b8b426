"""Tests of the benchmark's own pieces: corpus generator and output check."""

import pytest

import check
import corpus
import tracer

HEADER = ("technique,kind,window_k,split_index,gap,test_project,test_version,"
          "tp,fp,tn,fn,precision,recall,fscore,gmeasure,mcc,auc,auc_degenerate")
# two pairs; the first tests two versions, the second one
PAIRS = [
    {"key": ["IC", "1", "1", "1"],
     "versions": [["b", "1", 10, 4], ["c", "1", 6, 2]]},
    {"key": ["II", "inf", "1", "1"],
     "versions": [["c", "1", 6, 2]]},
]
TECHNIQUES = ["watanabe08", "ma12"]


def _results() -> str:
    lines = [HEADER]
    for technique in TECHNIQUES:
        for pair in PAIRS:
            for project, version, n, d in pair["versions"]:
                tp, fn = d - 1, 1
                fp, tn = 1, n - d - 1
                lines.append(
                    f"{technique},{','.join(pair['key'])},{project},{version},"
                    f"{tp},{fp},{tn},{fn},0.5,0.5,0.5,0.5,0.1,0.625,false")
    return "\n".join(lines) + "\n"


def _manifest(rows: int) -> dict:
    return {"row_accounting": {"expected_rows": rows,
                               "rows_from_failed_combinations": 0,
                               "version_skips": 0, "written_rows": rows}}


@pytest.mark.parametrize("workload", sorted(corpus.SPECS))
def test_generator_bytes_depend_only_on_seed(workload):
    spec = corpus.SPECS[workload]
    assert corpus.generate(spec, 3) == corpus.generate(spec, 3)
    assert corpus.generate(spec, 3)[0] != corpus.generate(spec, 4)[0]


@pytest.mark.parametrize("workload", sorted(corpus.SPECS))
def test_generator_shape_is_fixed_by_the_spec(workload):
    spec = corpus.SPECS[workload]
    sizes = {len(corpus.generate(spec, seed)[0].splitlines())
             for seed in (1, 2)}
    expected = sum(spec.classes_in(month) for _, month in spec.timeline())
    assert sizes == {expected + 1}


def test_unchanged_results_pass_the_check():
    text = _results()
    result = check.check_run(text, _manifest(6), PAIRS, TECHNIQUES, text)
    assert result.attempted == 4
    assert result.failed == [] and result.errors == []


def test_one_perturbed_confusion_count_fails_one_combination():
    reference = _results()
    lines = reference.splitlines()
    fields = lines[2].split(",")
    fields[7] = str(int(fields[7]) + 1)  # tp of watanabe08/IC, version c/1
    lines[2] = ",".join(fields)
    result = check.check_run("\n".join(lines) + "\n", _manifest(6), PAIRS,
                             TECHNIQUES, reference)
    assert result.attempted == 4
    assert result.failed == ["watanabe08/IC/1/1/1"]


def test_score_outside_tolerance_fails_only_with_a_reference():
    reference = _results()
    perturbed = reference.replace(",0.625,false", ",0.62500001,false", 1)
    with_ref = check.check_run(perturbed, _manifest(6), PAIRS, TECHNIQUES,
                               reference)
    without_ref = check.check_run(perturbed, _manifest(6), PAIRS, TECHNIQUES,
                                  None)
    assert with_ref.failed == ["watanabe08/IC/1/1/1"]
    assert without_ref.failed == []


def test_missing_combination_fails_and_breaks_row_accounting():
    text = "\n".join(line for line in _results().splitlines()
                     if not line.startswith("ma12,II")) + "\n"
    result = check.check_run(text, _manifest(6), PAIRS, TECHNIQUES, None)
    assert result.failed == ["ma12/II/inf/1/1"]
    assert result.errors


def test_self_time_subtracts_the_union_of_overlapping_children():
    # span tuples: (id, parent, name, thread, start, end); children 2 and 3
    # overlap, as calls from two pool threads do
    spans = [(1, None, "run_experiment", 1, 0.0, 10.0),
             (2, 1, "train_tree", 1, 1.0, 4.0),
             (3, 1, "train_tree", 2, 3.0, 6.0),
             (4, 1, "evaluate_pair", 1, 8.0, 9.0)]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(3.0)
