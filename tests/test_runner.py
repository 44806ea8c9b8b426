"""End-to-end runner behavior: files, determinism, accounting, validation."""

import json

import pytest

from e2e import write_experiment
from timeaware_cpdp import __version__
from timeaware_cpdp.config import ExperimentConfig, config_hash
from timeaware_cpdp.cli import main
from timeaware_cpdp.errors import DatasetError, DegenerateTreatmentError
from timeaware_cpdp.runner import (RESULTS_HEADER, build_tasks, load_dataset,
                                   load_results_csv, run_experiment, validate,
                                   write_pairs_csv, write_results_csv,
                                   write_summary_csv)

REPORT_FILES = ("results.csv", "stability.csv", "ranks.csv",
                "comparisons.csv", "plotdata.csv", "manifest.json")


def run(tmp_path, out_name="out", seed=17, threads=1, dump_trees=False,
        **overrides):
    cfg = ExperimentConfig.from_file(
        write_experiment(tmp_path, seed=seed, **overrides))
    out = tmp_path / out_name
    summary = run_experiment(cfg, out_dir=out, threads=threads,
                             dump_trees=dump_trees)
    return cfg, out, summary


def read_all(out, names=REPORT_FILES):
    return {name: (out / name).read_bytes() for name in names}


def test_run_writes_all_outputs_and_consistent_manifest(tmp_path):
    cfg, out, summary = run(tmp_path, **{"run.baseline_crossval": "3"})
    for name in REPORT_FILES:
        assert (out / name).exists(), name

    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == RESULTS_HEADER
    assert len(lines) - 1 == summary.rows_written > 0

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["tool_version"] == __version__
    assert manifest["config_sha256"] == config_hash(cfg)
    assert manifest["seed"] == 17
    assert manifest["bucket_count"] == 4
    acct = manifest["row_accounting"]
    assert (acct["expected_rows"] - acct["rows_from_failed_combinations"]
            - acct["version_skips"] == acct["written_rows"])
    assert acct["written_rows"] == summary.rows_written
    assert manifest["pair_counts"] == {"CC": 12, "IC": 9, "CI": 9, "II": 3,
                                       "crossval": 3}
    assert sum(manifest["pair_counts"].values()) == summary.pairs_total


def test_results_byte_identical_across_reruns(tmp_path):
    _, out_a, _ = run(tmp_path, out_name="a", **{"run.baseline_crossval": "3"})
    _, out_b, _ = run(tmp_path, out_name="b", **{"run.baseline_crossval": "3"})
    assert read_all(out_a) == read_all(out_b)


def test_results_independent_of_seed_without_random_steps(tmp_path):
    # no balancing and no cross-validation: the seed influences nothing
    _, out_a, _ = run(tmp_path, out_name="a", seed=17)
    _, out_b, _ = run(tmp_path, out_name="b", seed=99)
    names = tuple(n for n in REPORT_FILES if n != "manifest.json")
    assert read_all(out_a, names) == read_all(out_b, names)
    manifest_a = json.loads((out_a / "manifest.json").read_text())
    manifest_b = json.loads((out_b / "manifest.json").read_text())
    assert manifest_a["config_sha256"] != manifest_b["config_sha256"]


def test_crossval_depends_on_seed(tmp_path):
    _, out_a, _ = run(tmp_path, out_name="a", seed=17,
                      **{"run.baseline_crossval": "3",
                         "pairs.configurations": ""})
    _, out_b, _ = run(tmp_path, out_name="b", seed=99,
                      **{"run.baseline_crossval": "3",
                         "pairs.configurations": ""})
    assert (out_a / "results.csv").read_bytes() != \
        (out_b / "results.csv").read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    _, out_a, _ = run(tmp_path, out_name="a", threads=1,
                      **{"run.baseline_crossval": "3"})
    _, out_b, _ = run(tmp_path, out_name="b", threads=3,
                      **{"run.baseline_crossval": "3"})
    assert read_all(out_a) == read_all(out_b)


def test_dump_trees_writes_titled_dumps(tmp_path):
    _, out, _ = run(tmp_path, dump_trees=True)
    text = (out / "trees.txt").read_text(encoding="utf-8")
    assert text.startswith("# technique=")
    assert "kind=CC" in text
    assert "leaf defective=" in text


def test_balancing_keeps_accounting_balanced(tmp_path):
    _, out, summary = run(tmp_path, **{"run.balance": "true"})
    manifest = json.loads((out / "manifest.json").read_text())
    acct = manifest["row_accounting"]
    assert (acct["expected_rows"] - acct["rows_from_failed_combinations"]
            - acct["version_skips"] == acct["written_rows"])
    assert summary.rows_written > 0


def test_failing_technique_is_skipped_and_counted(tmp_path, monkeypatch):
    import timeaware_cpdp.runner as runner_mod
    real = runner_mod.apply_treatment

    def flaky(name, tp, config):
        if name == "ma12":
            raise DegenerateTreatmentError("forced failure")
        return real(name, tp, config)

    monkeypatch.setattr(runner_mod, "apply_treatment", flaky)
    cfg, out, summary = run(tmp_path)
    records = load_results_csv(out / "results.csv")
    assert summary.pair_technique_failures == summary.pairs_total
    assert not any(r.technique == "ma12" for r in records)
    assert {r.technique for r in records} == {
        "watanabe08", "camargocruz09", "amasaki15", "nam15"}
    manifest = json.loads((out / "manifest.json").read_text())
    acct = manifest["row_accounting"]
    assert acct["rows_from_failed_combinations"] > 0
    assert (acct["expected_rows"] - acct["rows_from_failed_combinations"]
            - acct["version_skips"] == acct["written_rows"])


@pytest.mark.parametrize("threads", [1, 2])
def test_programming_error_in_a_treatment_fails_the_run(tmp_path, monkeypatch,
                                                        threads):
    import timeaware_cpdp.runner as runner_mod

    def buggy(tp):
        raise TypeError("forced bug")

    monkeypatch.setattr(runner_mod, "ma12", buggy)
    with pytest.raises(TypeError, match="forced bug"):
        run(tmp_path, threads=threads)
    cfg = write_experiment(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "cli"),
                 "--threads", str(threads)]) == 2


def test_results_roundtrip_through_csv(tmp_path):
    _, out, _ = run(tmp_path, **{"run.baseline_crossval": "3"})
    records = load_results_csv(out / "results.csv")
    rewritten = tmp_path / "rewritten.csv"
    write_results_csv(rewritten, records)
    assert rewritten.read_bytes() == (out / "results.csv").read_bytes()
    assert load_results_csv(rewritten) == records


def test_load_results_rejects_foreign_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="unexpected results header"):
        load_results_csv(bad)


def test_summary_and_pairs_writers(tmp_path):
    cfg = ExperimentConfig.from_file(write_experiment(tmp_path))
    releases, ts = load_dataset(cfg)
    summary_path = tmp_path / "summary.csv"
    write_summary_csv(summary_path, ts)
    lines = summary_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bucket_index,start,end,releases,instances,defective_pct"
    assert lines[1].startswith("0,2001-01-01,2001-07-01,2,24,")

    tasks = build_tasks(cfg, ts, releases)
    pairs_path = tmp_path / "pairs.csv"
    write_pairs_csv(pairs_path, tasks)
    lines = pairs_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "kind,window_k,split_index,gap,train_versions,test_versions"
    assert lines[1] == "CC,1,1,0,alpha/1.0;beta/1.0,gamma/1.0;delta/1.0"
    # II rows render the unbounded window as inf
    assert any(line.startswith("II,inf,") for line in lines[1:])


def test_validate_reports_dataset_and_pair_info(tmp_path):
    cfg = ExperimentConfig.from_file(
        write_experiment(tmp_path, **{"run.baseline_crossval": "3"}))
    diags = validate(cfg)
    assert all(d.severity != "error" for d in diags)
    messages = [d.message for d in diags]
    assert any("8 releases from 7 projects" in m for m in messages)
    assert any("4 buckets of 6 months" in m for m in messages)
    assert any(m == "CC: 12 pairs" for m in messages)
    assert any(m == "crossval: 3 pairs" for m in messages)


def test_validate_flags_missing_column(tmp_path):
    cfg = ExperimentConfig.from_file(
        write_experiment(tmp_path, **{"dataset.feature_cols": "f1,nope"}))
    diags = validate(cfg)
    assert any(d.severity == "error" and "nope" in d.message for d in diags)


def test_validate_warns_when_gap_leaves_no_room(tmp_path):
    cfg = ExperimentConfig.from_file(write_experiment(
        tmp_path, **{"buckets.granularity_months": "12",
                     "pairs.gap_buckets": "1"}))
    diags = validate(cfg)
    assert any(d.severity == "warning" and "no room" in d.message
               for d in diags)


def test_validate_flags_oversized_crossval(tmp_path):
    cfg = ExperimentConfig.from_file(
        write_experiment(tmp_path, **{"run.baseline_crossval": "50"}))
    diags = validate(cfg)
    assert any(d.severity == "error" and "exceeds" in d.message for d in diags)


def test_missing_dataset_file_raises_dataset_error(tmp_path):
    cfg_path = write_experiment(tmp_path)
    (tmp_path / "releases.csv").unlink()
    cfg = ExperimentConfig.from_file(cfg_path)
    with pytest.raises(DatasetError):
        run_experiment(cfg, out_dir=tmp_path / "out")
