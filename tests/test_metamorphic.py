"""Metamorphic relations of a whole run: dataset edits that change no output byte.

A corpus built with synth.py runs through every technique, the four
time-aware configurations and the cross-validation baseline, with and
without under-sampling. Two edits of its CSV must leave results.csv,
the four reports and manifest.json byte-identical:

* interleaving the rows of different releases, each release keeping its
  own row order, since releases are grouped by (project, version);
* renaming the class ids, which only identify rows.

The same config and CSV copied into another directory must give the
same bytes too: config_sha256 leaves out the dataset and output paths.
So must two processes with different string hash seeds, trees.txt,
stdout and stderr included: the runner keys dicts on tuples of strings.

A treatment sees its pair's whole test side. identity and nam15 read no
test values, so dropping a pair's later test releases must leave the
earliest release's scores unchanged under both.
"""

import os
import random
import shutil
import subprocess
import sys
from datetime import date
from itertools import chain, zip_longest
from pathlib import Path

import pytest

import timeaware_cpdp
from e2e import write_experiment
from synth import csv_rows, dataset_csv, simple_release
from timeaware_cpdp.cli import main
from timeaware_cpdp.dataset import bucketize
from timeaware_cpdp.metrics import evaluate_pair
from timeaware_cpdp.pairs import ConfigurationKind, TrainTestPair, enumerate_pairs
from timeaware_cpdp.tree import TreeParams, train_tree
from timeaware_cpdp.treatments import (TREATMENT_NAMES, assemble_pair,
                                       identity_treatment, nam15, watanabe08)

OUTPUTS = ("results.csv", "stability.csv", "ranks.csv", "comparisons.csv",
           "plotdata.csv", "manifest.json")


def corpus():
    """Releases of six projects over 2.5 years, 8-16 rows of 3 metrics each."""
    rng = random.Random(11)
    releases = []
    for month in range(0, 30, 3):
        project = f"p{rng.randrange(6)}"
        released = date(2001 + month // 12, month % 12 + 1, rng.randint(1, 28))
        releases.append(simple_release(project, f"v{month}", released,
                                       n_rows=rng.randint(8, 16), d=3, rng=rng))
    return releases


def interleaved(releases):
    """Round-robin over the releases, each release's rows in their order."""
    rounds = zip_longest(*(csv_rows([rel]) for rel in releases))
    return [row for row in chain.from_iterable(rounds) if row is not None]


def renamed(releases):
    """Every class id replaced by a distinct unrelated one."""
    original = csv_rows(releases)
    names = [f"renamed.K{i}" for i in random.Random(3).sample(
        range(len(original)), len(original))]
    return [(rel, name, rec) for (rel, _, rec), name in zip(original, names)]


def run_outputs(tmp_path, csv_text, balance):
    (tmp_path / "releases.csv").write_text(csv_text, encoding="utf-8")
    cfg = write_experiment(tmp_path, **{
        "run.techniques": ",".join(TREATMENT_NAMES),
        "run.baseline_crossval": "3",
        "run.balance": balance,
    })
    assert main(["run", "--config", str(cfg)]) == 0
    return {name: (tmp_path / "out" / name).read_bytes() for name in OUTPUTS}


def test_another_directory_changes_no_output_byte(tmp_path):
    csv_text = dataset_csv(csv_rows(corpus()))
    outputs = []
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        outputs.append(run_outputs(tmp_path / name, csv_text, "false"))
    for name in OUTPUTS:
        assert outputs[0][name] == outputs[1][name], name


def test_hash_seed_changes_no_output_byte(tmp_path):
    (tmp_path / "releases.csv").write_text(dataset_csv(csv_rows(corpus())),
                                           encoding="utf-8")
    cfg = write_experiment(tmp_path, **{
        "run.techniques": ",".join(TREATMENT_NAMES),
        "run.baseline_crossval": "3",
    })
    src = Path(timeaware_cpdp.__file__).parents[1]
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from timeaware_cpdp.cli import main; sys.exit(main())",
             "run", "--config", str(cfg), "--dump-trees"],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "out"
        outputs.append({name: (out / name).read_bytes()
                        for name in OUTPUTS + ("trees.txt",)})
        outputs[-1].update(stdout=proc.stdout, stderr=proc.stderr)
        shutil.rmtree(out)
    assert outputs[0] == outputs[1]


# under-sampling draws training rows by position, so with balancing on a
# run that reordered a release's rows would change
@pytest.mark.parametrize("balance", ["false", "true"])
@pytest.mark.parametrize("edit", [interleaved, renamed])
def test_dataset_edit_changes_no_output_byte(tmp_path, edit, balance):
    releases = corpus()
    original = run_outputs(tmp_path, dataset_csv(csv_rows(releases)), balance)
    # the run scores every technique, so the relation covers all of them
    results = original["results.csv"].decode()
    for technique in TREATMENT_NAMES:
        assert f"\n{technique}," in results, technique
    edited_csv = dataset_csv(edit(releases))
    assert edited_csv != (tmp_path / "releases.csv").read_text(encoding="utf-8")
    edited = run_outputs(tmp_path, edited_csv, balance)
    for name in OUTPUTS:
        assert edited[name] == original[name], name


def earliest_scores(pair, treat):
    """The VersionScore of the pair's earliest test release under treat."""
    treated = treat(assemble_pair(pair))
    return evaluate_pair(train_tree(treated, TreeParams()), treated)[0]


def test_later_test_releases_leave_identity_and_nam15_rows_unchanged():
    ts = bucketize(corpus(), 6)
    pairs = [pair for kind in ("CC", "IC", "CI", "II")
             for pair in enumerate_pairs(ts, ConfigurationKind(kind), 0)
             if len(pair.test) > 1]
    assert len(pairs) >= 10
    pooled_changes = 0
    for pair in pairs:
        alone = TrainTestPair(pair.spec, pair.train, pair.test[:1])
        for treat in (identity_treatment, nam15):
            assert earliest_scores(alone, treat) == earliest_scores(pair, treat)
        # watanabe08 rescales by the pooled test means, so the relation
        # can tell a treatment that reads the later releases
        pooled_changes += (earliest_scores(alone, watanabe08)
                           != earliest_scores(pair, watanabe08))
    assert pooled_changes > 0
