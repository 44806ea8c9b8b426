"""The planned run against the per-pair loop it replaced.

Random small datasets, whose truncated windows give several (window,
split) tags the same train and test releases, must give byte-identical
results.csv, manifest.json, trees.txt and reports, and the same skip
warnings in the same order, from ``runner.run_experiment`` and from
``runner_oracle.run_experiment``. The draws cover under-sampling and
cross-validation on and off, treatments that reject negative features,
and a treatment forced to fail on some training sides.
"""

import logging
import random
import tempfile
from contextlib import contextmanager
from datetime import date
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

import runner_oracle as oracle
from e2e import write_experiment
from timeaware_cpdp import runner
from timeaware_cpdp.config import ExperimentConfig
from timeaware_cpdp.dataset import add_months
from timeaware_cpdp.errors import DegenerateTreatmentError
from timeaware_cpdp.tree import training_order
from timeaware_cpdp.treatments import TREATMENT_NAMES

OUTPUTS = ("results.csv", "manifest.json", "trees.txt", "stability.csv",
           "ranks.csv", "comparisons.csv", "plotdata.csv")


def dataset_csv(releases, rows, features, defect_rate, negative, seed):
    """CSV text of releases given as (project, month offset) pairs.

    Values sit on a coarse grid, so ties and repeated rows occur.
    """
    rng = random.Random(seed)
    names = ",".join(f"f{i}" for i in range(features))
    lines = [f"project,version,release_date,class,defects,{names}"]
    versions: dict[str, int] = {}
    for project, offset in releases:
        versions[project] = versions.get(project, 0) + 1
        day = add_months(date(2001, 1, 1), offset).replace(day=10)
        for i in range(rows):
            defective = rng.random() < defect_rate
            center = 6.0 if defective else 2.0
            values = [round(rng.gauss(center, 2.0)) / 2 for _ in range(features)]
            if not negative:
                values = [abs(v) for v in values]
            lines.append(f"{project},{versions[project]},{day.isoformat()},"
                         f"C{i},{int(defective)},"
                         + ",".join(repr(v) for v in values))
    return "\n".join(lines) + "\n"


@st.composite
def experiments(draw):
    n_releases = draw(st.integers(3, 8))
    releases = [(draw(st.sampled_from("pqrstuv")), draw(st.integers(0, 36)))
                for _ in range(n_releases)]
    techniques = draw(st.lists(st.sampled_from(TREATMENT_NAMES), min_size=1,
                               max_size=3, unique=True))
    overrides = {
        "run.techniques": ",".join(techniques),
        "pairs.gap_buckets": str(draw(st.integers(0, 1))),
        "run.balance": draw(st.sampled_from(("true", "false"))),
    }
    if draw(st.booleans()):
        overrides["run.baseline_crossval"] = str(draw(st.integers(2, 3)))
    csv_text = dataset_csv(
        releases, rows=draw(st.integers(5, 10)), features=draw(st.integers(1, 3)),
        defect_rate=draw(st.sampled_from((0.0, 0.2, 0.5))),
        negative=draw(st.integers(0, 4)) == 0, seed=draw(st.integers(0, 999)))
    # a technique that fails whenever the training side has a multiple
    # of `modulus` rows, so some training sides skip it on every tag
    forced = draw(st.none() | st.tuples(st.sampled_from(techniques),
                                        st.integers(2, 3)))
    return csv_text, overrides, forced, draw(st.integers(0, 99))


def forcing(forced, real):
    def apply_treatment(name, tp, config):
        if forced is not None:
            technique, modulus = forced
            if name == technique and tp.n_train % modulus == 0:
                raise DegenerateTreatmentError(
                    f"forced on {tp.n_train} training rows")
        return real(name, tp, config)
    return apply_treatment


def counting(fits, real):
    """train_tree that records the byte digest and order key of each fit."""
    def train_tree(treated, params=None, **kwargs):
        tree = real(treated, params, **kwargs)
        fits.append((oracle.training_digest(treated),
                     training_order(treated)[1]))
        return tree
    return train_tree


@contextmanager
def captured_warnings(name):
    lines = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger(name)
    logger.addHandler(handler)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)


def run(module, cfg, out, forced, fits):
    with mock.patch.object(module, "apply_treatment",
                           forcing(forced, runner.apply_treatment)), \
            mock.patch.object(module, "train_tree",
                              counting(fits, runner.train_tree)), \
            captured_warnings(module.logger.name) as warnings:
        module.run_experiment(cfg, out_dir=out, dump_trees=True)
    return {name: (out / name).read_bytes() for name in OUTPUTS}, warnings


@settings(max_examples=100, deadline=None)
@given(experiments())
def test_planned_run_matches_per_pair_oracle(experiment):
    csv_text, overrides, forced, seed = experiment
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "releases.csv").write_text(csv_text, encoding="utf-8")
        cfg = ExperimentConfig.from_file(
            write_experiment(tmp, seed=seed, **overrides))
        oracle_fits, planned_fits = [], []
        expected = run(oracle, cfg, tmp / "oracle", forced, oracle_fits)
        actual = run(runner, cfg, tmp / "planned", forced, planned_fits)
        releases, ts = runner.load_dataset(cfg)
        tasks = runner.build_tasks(cfg, ts, releases)
    release_sets = {(tuple(r.key for r in pair.train),
                     tuple(r.key for r in pair.test)) for pair in tasks}
    if len(release_sets) < len(tasks):
        event("duplicate (train, test) release sets")
    oracle_digests = {digest for digest, _ in oracle_fits}
    planned_digests = {digest for digest, _ in planned_fits}
    if len(oracle_digests) < len(oracle_fits):
        event("repeated fit inputs")
    if len(planned_fits) < len(oracle_fits):
        event("fits saved by the plan")
    if len(planned_digests) < len(oracle_digests):
        event("distinct inputs share a tree by order")
    if expected[1]:
        event("skip warnings")

    assert actual == expected
    # the planned run fits only inputs the oracle fits, at most as often,
    # and grows a tree for every training order the oracle fits
    assert planned_digests <= oracle_digests
    assert ({key for _, key in oracle_fits}
            <= {key for _, key in planned_fits})
    assert len(planned_fits) <= len(oracle_fits)
