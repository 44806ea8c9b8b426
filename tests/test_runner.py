"""End-to-end runner behavior: files, determinism, accounting, validation."""

import csv
import gc
import hashlib
import io
import json
import logging
import threading
import weakref

import numpy as np
import pytest

from e2e import make_demo, toy_csv, write_experiment
from timeaware_cpdp import __version__
from timeaware_cpdp import runner as runner_module
from timeaware_cpdp import tree as tree_module
from timeaware_cpdp.config import ExperimentConfig, config_hash
from timeaware_cpdp.cli import main
from timeaware_cpdp.errors import (ConfigError, DatasetError,
                                   DegenerateTreatmentError)
from timeaware_cpdp.pairs import ConfigurationKind, PairSpec
from timeaware_cpdp.runner import (build_tasks, load_dataset, run_experiment,
                                   validate, write_pairs_csv, write_summary_csv)
from timeaware_cpdp.stability import (RESULTS_HEADER, _fmt_window,
                                      load_results_csv, write_results_csv)

REPORT_FILES = ("results.csv", "stability.csv", "ranks.csv",
                "comparisons.csv", "plotdata.csv", "manifest.json")


def run(tmp_path, out_name="out", seed=17, dump_trees=False, **overrides):
    cfg = ExperimentConfig.from_file(
        write_experiment(tmp_path, seed=seed, **overrides))
    out = tmp_path / out_name
    summary = run_experiment(cfg, out_dir=out, dump_trees=dump_trees)
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
            == acct["written_rows"])
    assert acct["written_rows"] == summary.rows_written
    assert manifest["pair_counts"] == {"CC": 12, "IC": 9, "CI": 9, "II": 3,
                                       "crossval": 3}
    assert sum(manifest["pair_counts"].values()) == summary.pairs_total



@pytest.mark.parametrize("balance", ["false", "true"])
def test_row_accounting_holds_the_three_counts_that_balance(tmp_path, balance):
    cfg, out, summary = run(tmp_path, **{"run.balance": balance})
    releases, ts = load_dataset(cfg)
    test_versions = sum(len(pair.test)
                        for pair in build_tasks(cfg, ts, releases))
    acct = json.loads((out / "manifest.json").read_text())["row_accounting"]
    assert sorted(acct) == ["expected_rows", "rows_from_failed_combinations",
                            "written_rows"]
    assert acct["expected_rows"] == test_versions * len(cfg.techniques)
    assert (acct["expected_rows"] - acct["rows_from_failed_combinations"]
            == acct["written_rows"] == summary.rows_written)

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


@pytest.mark.parametrize("base_seed", [0, -1, 2**64 + 3])
@pytest.mark.parametrize("kind, window_k, split, gap, key", [
    ("CC", 3, 4, 1, "CC:3:4:1"),
    ("IC", 1, 2, 0, "IC:1:2:0"),
    ("CI", 12, 15, 2, "CI:12:15:2"),
    ("II", None, 7, 1, "II:inf:7:1"),
    ("crossval", None, 0, 0, "crossval:inf:0:0"),
])
def test_pair_seed_is_the_sha256_prefix_of_its_key(base_seed, kind, window_k,
                                                   split, gap, key):
    """pair_seed is the first 8 bytes, big-endian, of a SHA-256.

    The hashed key is "seed:kind:window:split:gap", with an unbounded
    window written as inf.
    """
    spec = PairSpec(ConfigurationKind(kind), window_k, split, gap)
    digest = hashlib.sha256(f"{base_seed}:{key}".encode()).digest()
    assert runner_module.pair_seed(base_seed, spec) == \
        int.from_bytes(digest[:8], "big")


def test_threads_keyword_runs_serially_with_the_same_bytes(tmp_path,
                                                          monkeypatch):
    """threads=2 starts no thread and writes the threads=1 bytes."""
    cfg = ExperimentConfig.from_file(
        write_experiment(tmp_path, **{"run.baseline_crossval": "3"}))
    run_experiment(cfg, out_dir=tmp_path / "a", threads=1, dump_trees=True)

    def start(self):
        raise AssertionError(f"run_experiment started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", start)
    run_experiment(cfg, out_dir=tmp_path / "b", threads=2, dump_trees=True)
    names = REPORT_FILES + ("trees.txt",)
    assert read_all(tmp_path / "a", names) == read_all(tmp_path / "b", names)


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_is_a_config_error(tmp_path, threads):
    cfg = ExperimentConfig.from_file(write_experiment(tmp_path))
    with pytest.raises(ConfigError, match=f"threads must be >= 1, got {threads}"):
        run_experiment(cfg, out_dir=tmp_path / "out", threads=threads)
    assert not (tmp_path / "out").exists()


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
            == acct["written_rows"])
    assert summary.rows_written > 0


def test_unbalanceable_set_skips_each_technique_in_enumeration_order(
        tmp_path, caplog):
    # bucket 0 (alpha 1.0 and beta 1.0) has no defective class, so every
    # pair at split 1 trains on one class and cannot be balanced
    lines = toy_csv().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[1] == "1.0" and fields[0] in ("alpha", "beta"):
            fields[4] = "0"
            lines[i] = ",".join(fields)
    (tmp_path / "releases.csv").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    techniques = ("identity", "ma12")
    with caplog.at_level(logging.WARNING):
        cfg, out, summary = run(tmp_path, **{
            "run.balance": "true", "run.techniques": ",".join(techniques)})
    releases, ts = load_dataset(cfg)
    unbalanceable = [pair for pair in build_tasks(cfg, ts, releases)
                     if pair.spec.split_index == 1]
    assert [r.getMessage() for r in caplog.records] == [
        f"pair {pair.spec.kind.value} K={_fmt_window(pair.spec.window_k)} "
        f"split=1 technique={technique}: single-class training set cannot "
        "be balanced; skipped"
        for pair in unbalanceable for technique in techniques]
    # the counts of one skip per (pair, technique) combination
    manifest = json.loads((out / "manifest.json").read_text())
    assert summary.pair_technique_failures == 22 == 2 * len(unbalanceable)
    assert manifest["row_accounting"] == {
        "expected_rows": 188, "rows_from_failed_combinations": 94,
        "written_rows": 94}


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
            == acct["written_rows"])


class CountingNumpy:
    """numpy as the tree module sees it, counting argsort calls."""

    def __init__(self):
        self.sorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self.sorts += 1
        return np.argsort(*args, **kwargs)


def counted_run(tmp_path, monkeypatch, techniques):
    """Run the toy experiment; count treated inputs, tree fits and sorts."""
    counting_np = CountingNumpy()
    monkeypatch.setattr(tree_module, "np", counting_np)
    treated, fits = [], []
    real_treatment = runner_module.apply_treatment
    real_train_tree = runner_module.train_tree

    def apply_treatment(name, tp, config):
        treated.append(real_treatment(name, tp, config))
        return treated[-1]

    def train_tree(tp, params=None, **kwargs):
        fits.append(kwargs)
        return real_train_tree(tp, params, **kwargs)

    monkeypatch.setattr(runner_module, "apply_treatment", apply_treatment)
    monkeypatch.setattr(runner_module, "train_tree", train_tree)
    cfg, out, _ = run(tmp_path, out_name=techniques.replace(",", "-"),
                      **{"run.techniques": techniques})
    monkeypatch.undo()  # a second run wraps the real functions again
    return cfg, out, len(treated), fits, counting_np.sorts


def test_one_sort_per_treated_input(tmp_path, monkeypatch):
    _, _, treated, fits, sorts = counted_run(
        tmp_path, monkeypatch, "watanabe08,camargocruz09,ma12,amasaki15,nam15")
    assert 0 < len(fits) < treated
    assert sorts == treated
    assert all(kwargs["order"] is not None for kwargs in fits)
    # growth takes the sort it is given
    counting_np = CountingNumpy()
    monkeypatch.setattr(tree_module, "np", counting_np)
    x = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 2.0], [0.0, 5.0]])
    order = np.argsort(x.T, axis=1, kind="stable")
    tree_module._grow(x, np.array([True, False, True, False]), np.ones(4),
                      0.5, order)
    assert counting_np.sorts == 0


def test_camargocruz09_shares_the_watanabe08_tree(tmp_path, monkeypatch):
    cfg, alone, _, fits_alone, _ = counted_run(tmp_path, monkeypatch,
                                               "watanabe08")
    _, both, _, fits_both, _ = counted_run(tmp_path, monkeypatch,
                                           "watanabe08,camargocruz09")
    releases, ts = load_dataset(cfg)
    sides = {tuple(r.key for r in pair.train)
             for pair in build_tasks(cfg, ts, releases)}
    # one tree per training side: watanabe08 leaves the training values
    # as they are, and camargocruz09 maps them through log1p and a shift
    assert len(fits_alone) == len(fits_both) == len(sides)
    records = load_results_csv(both / "results.csv")
    assert {r.technique for r in records} == {"watanabe08", "camargocruz09"}
    assert ((alone / "results.csv").read_text().splitlines()
            == [line for line in (both / "results.csv").read_text().splitlines()
                if not line.startswith("camargocruz09,")])


def test_skip_warnings_come_per_tag_in_enumeration_order(
        tmp_path, monkeypatch, caplog):
    import runner_oracle
    import timeaware_cpdp.runner as runner_mod
    real = runner_mod.apply_treatment

    def flaky(name, tp, config):
        # 12 rows per release: fails on training sides of 4 releases
        if name == "ma12" and tp.n_train == 48:
            raise DegenerateTreatmentError("forced failure")
        return real(name, tp, config)

    monkeypatch.setattr(runner_mod, "apply_treatment", flaky)
    monkeypatch.setattr(runner_oracle, "apply_treatment", flaky)
    cfg = ExperimentConfig.from_file(write_experiment(tmp_path))
    with caplog.at_level(logging.WARNING):
        runner_oracle.run_experiment(cfg, out_dir=tmp_path / "oracle")
    expected = [r.getMessage() for r in caplog.records]
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        summary = run_experiment(cfg, out_dir=tmp_path / "planned")
    assert [r.getMessage() for r in caplog.records] == expected
    assert len(expected) == summary.pair_technique_failures
    # some tags, not all, are skipped, and tags share (train, test) sets
    releases, ts = load_dataset(cfg)
    tasks = build_tasks(cfg, ts, releases)
    assert 0 < len(expected) < len(tasks)
    assert len({(tuple(r.key for r in pair.train),
                 tuple(r.key for r in pair.test)) for pair in tasks}) < len(tasks)
    assert expected[0] == ("pair CC K=2 split=2 technique=ma12: "
                           "forced failure; skipped")


# only documented data conditions skip a combination; a plain ValueError,
# such as NumPy's broadcasting error, is a programming error too
@pytest.mark.parametrize("error", [TypeError, ValueError])
def test_programming_error_in_a_treatment_fails_the_run(tmp_path, monkeypatch,
                                                        caplog, error):
    import timeaware_cpdp.runner as runner_mod

    def buggy(tp):
        raise error("forced bug")

    monkeypatch.setattr(runner_mod, "ma12", buggy)
    with pytest.raises(error, match="forced bug"):
        run(tmp_path)
    cfg = write_experiment(tmp_path)
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "cli")]) == 2
    assert "internal error" in caplog.text
    assert "skipped" not in caplog.text


def test_demo_stability_report_has_no_duplicate_lines(tmp_path):
    """`sort stability.csv | uniq -d` prints nothing on the quick-start demo."""
    make_demo(tmp_path / "demo", seed=7)
    cfg = ExperimentConfig.from_file(tmp_path / "demo" / "experiment.cfg")
    run_experiment(cfg, out_dir=tmp_path / "out")

    text = (tmp_path / "out" / "stability.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == len(set(lines))
    # II and crossval have no window: one overall row per technique and metric
    rows = list(csv.DictReader(lines))
    for kind in ("II", "crossval"):
        assert len([r for r in rows if r["kind"] == kind]) == 5 * 4
        assert {r["window_k"] for r in rows if r["kind"] == kind} == {""}
    assert {r["window_k"] for r in rows if r["kind"] == "CC"} > {""}


@pytest.fixture
def demo_tasks(tmp_path):
    """The quick-start demo's config and pairs: 45 pairs, 15 sets, 7 sides."""
    make_demo(tmp_path / "demo", seed=7)
    cfg = ExperimentConfig.from_file(tmp_path / "demo" / "experiment.cfg")
    releases, ts = load_dataset(cfg)
    return cfg, build_tasks(cfg, ts, releases)


def test_each_set_runs_once_with_its_sides_tree_memo(demo_tasks, monkeypatch):
    cfg, tasks = demo_tasks
    real_run_set = runner_module._run_set
    calls = []  # holding each memo keeps its id from being reused

    def run_set(pair, trees, config, dump_trees):
        calls.append((runner_module._set_key(pair, config), trees))
        return real_run_set(pair, trees, config, dump_trees)

    monkeypatch.setattr(runner_module, "_run_set", run_set)
    runner_module._walk(tasks, cfg, False)
    first_tags = list(dict.fromkeys(runner_module._set_key(pair, cfg)
                                    for pair in tasks))
    assert (len(tasks), len(first_tags)) == (45, 15)
    assert [key for key, _ in calls] == first_tags
    memos: dict = {}
    for (train, _), trees in calls:
        assert memos.setdefault(train, trees) is trees
    assert len(memos) == 7
    assert len({id(trees) for trees in memos.values()}) == len(memos)


def test_a_sides_trees_die_after_its_last_tag(demo_tasks, monkeypatch):
    cfg, tasks = demo_tasks
    sides = [runner_module._set_key(pair, cfg)[0] for pair in tasks]
    last_tag = {train: i for i, train in enumerate(sides)}
    real_run_set = runner_module._run_set
    real_train_tree = runner_module.train_tree
    fitted: dict = {}  # training side -> weak references to its trees
    side = None
    finished = []

    def run_set(pair, trees, config, dump_trees):
        nonlocal side
        i = next(i for i, task in enumerate(tasks) if task is pair)
        gc.collect()
        for train, refs in fitted.items():
            alive = [ref() is not None for ref in refs]
            if last_tag[train] < i:
                assert not any(alive)
                finished.append(train)
            else:
                assert all(alive)
        side = sides[i]
        return real_run_set(pair, trees, config, dump_trees)

    def train_tree(*args, **kwargs):
        tree = real_train_tree(*args, **kwargs)
        fitted.setdefault(side, []).append(weakref.ref(tree))
        return tree

    monkeypatch.setattr(runner_module, "_run_set", run_set)
    monkeypatch.setattr(runner_module, "train_tree", train_tree)
    runner_module._walk(tasks, cfg, False)
    assert len(fitted) == 7 and finished
    gc.collect()
    assert all(ref() is None for refs in fitted.values() for ref in refs)


def test_a_tag_the_walk_skips_unbalances_the_accounting(tmp_path,
                                                       monkeypatch):
    real_walk = runner_module._walk
    monkeypatch.setattr(runner_module, "_walk",
                        lambda tasks, *args: real_walk(tasks[:-1], *args))
    with pytest.raises(RuntimeError, match="row accounting does not balance"):
        run(tmp_path)
    assert not (tmp_path / "out" / "manifest.json").exists()


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


def test_load_results_rejects_malformed_rows(tmp_path):
    _, out, _ = run(tmp_path)
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[2].split(",")
    not_a_count = fields[:7] + ["x"] + fields[8:]
    cases = ((fields[:-1], "expected 18 fields"),
             (fields + ["extra"], "expected 18 fields"),
             (fields[:-1] + ["maybe"], "auc_degenerate is not true or false"),
             (not_a_count, "invalid literal for int"))
    for broken, message in cases:
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:2] + [",".join(broken)] + lines[3:]) + "\n",
                       encoding="utf-8")
        with pytest.raises(DatasetError, match=f"bad.csv: line 3: {message}"):
            load_results_csv(bad)


def test_summary_and_pairs_writers(tmp_path):
    cfg = ExperimentConfig.from_file(write_experiment(tmp_path))
    releases, ts = load_dataset(cfg)
    buffer = io.StringIO()
    write_summary_csv(buffer, ts)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "bucket_index,start,end,releases,instances,defective_pct"
    assert lines[1].startswith("0,2001-01-01,2001-07-01,2,24,")

    tasks = build_tasks(cfg, ts, releases)
    buffer = io.StringIO()
    write_pairs_csv(buffer, tasks)
    lines = buffer.getvalue().splitlines()
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
    assert ("plan: 36 pairs, 13 distinct (train, test) sets, "
            "9 training sides") in messages


# validate's diagnostics on the quick-start demo (make_demo.py, seed 7)
DEMO_DIAGNOSTICS = [
    ("info", "24 releases from 10 projects, 2138 instances"),
    ("info", "7 buckets of 6 months from 2001-01-01 to 2004-07-01"),
    ("info", "bucket 0 [2001-01-01..2001-07-01): 1 releases"),
    ("info", "bucket 1 [2001-07-01..2002-01-01): 5 releases"),
    ("info", "bucket 2 [2002-01-01..2002-07-01): 6 releases"),
    ("info", "bucket 3 [2002-07-01..2003-01-01): 4 releases"),
    ("info", "bucket 4 [2003-01-01..2003-07-01): 5 releases"),
    ("info", "bucket 5 [2003-07-01..2004-01-01): 2 releases"),
    ("info", "bucket 6 [2004-01-01..2004-07-01): 1 releases"),
    ("info", "CC: 15 pairs"),
    ("info", "IC: 12 pairs"),
    ("info", "CI: 14 pairs"),
    ("info", "II: 2 pairs"),
    ("info", "crossval: 2 pairs"),
    ("info", "plan: 45 pairs, 15 distinct (train, test) sets, "
             "7 training sides"),
]


def test_validate_demo_diagnostics_enumerate_each_configuration_once(
        tmp_path, monkeypatch):
    make_demo(tmp_path / "demo", seed=7)
    cfg = ExperimentConfig.from_file(tmp_path / "demo" / "experiment.cfg")
    calls = []
    enumerate_pairs = runner_module.enumerate_pairs

    def counting(ts, kind, gap):
        calls.append(kind.value)
        return enumerate_pairs(ts, kind, gap)

    monkeypatch.setattr(runner_module, "enumerate_pairs", counting)
    diags = validate(cfg)
    assert [(d.severity, d.message) for d in diags] == DEMO_DIAGNOSTICS
    assert calls == ["CC", "IC", "CI", "II"]


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
    # a baseline-only config asks for no time-aware pair
    cfg = ExperimentConfig.from_file(write_experiment(
        tmp_path, **{"buckets.granularity_months": "12",
                     "pairs.gap_buckets": "1", "pairs.configurations": "",
                     "run.baseline_crossval": "3"}))
    diags = validate(cfg)
    assert [d for d in diags if d.severity != "info"] == []
    assert "crossval: 3 pairs" in [d.message for d in diags]


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
