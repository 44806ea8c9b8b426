"""The key-table config parser against the hand-kept lists it replaced.

Mappings are drawn over all config keys, each absent, empty, valid or
(for up to two keys) invalid, with an unknown key now and then. Every
mapping that config_oracle.py accepts must give an equal config, with
the same ``config_hash`` and ``output_dir``; every mapping it rejects
with a ``ConfigError`` must be rejected with one. The one allowed
difference: an empty ``dataset.path`` crashes the oracle with a
``TypeError`` and is a ``ConfigError`` now.
"""

from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import config_oracle as oracle
from timeaware_cpdp.config import CONFIG_KEYS, ExperimentConfig, config_hash
from timeaware_cpdp.errors import ConfigError

BASE = Path("/nonexistent/configs")

# key: (values that parse, values that do not or break a range rule)
VALUES = {
    "dataset.path": (("releases.csv", "data/r.csv", "/abs/r.csv", "../up.csv"), ()),
    "dataset.project_col": (("project", "name", " padded "), ()),
    "dataset.version_col": (("version", "v"), ()),
    "dataset.date_col": (("release_date", "day"), ()),
    "dataset.class_col": (("class", "cls"), ()),
    "dataset.defects_col": (("defects", "bugs"), ()),
    "dataset.feature_cols": (("wmc", "wmc, rfc ,cbo", "a,,b", ","), ()),
    "buckets.granularity_months": (("6", "1", "12", " 7 ", "+2"),
                                   ("0", "-3", "1.5", "x")),
    "pairs.gap_buckets": (("0", "1", "3"), ("-1", "one")),
    "pairs.configurations": (("CC,IC,CI,II", "cc, ii", "II", "ic,CI", ",", " "),
                             ("CC,CC", "CC,XX", "CC,crossval", "crossval")),
    "run.techniques": (("watanabe08,camargocruz09,ma12,amasaki15,nam15",
                        "ma12", "identity, ma12", "nam15 , amasaki15"),
                       ("ma12,ma12", ",", "bogus")),
    "run.seed": (("17", "0", "-5", " 3 "), ("abc", "1.0")),
    "run.balance": (("true", "false", "yes", "off", "1", "0", "TRUE"), ("maybe",)),
    "run.baseline_crossval": (("10", "2", "3"), ("1", "0", "x")),
    "run.output_dir": (("out", "results", "/abs/out", "../o"), ()),
    "tree.pruning_confidence": (("0.25", "0.1", "0.3", "0.2"),
                                ("0.05", "high", "nan")),
    "tree.min_leaf_weight": (("2.0", "1", "0.5", "3"), ("0", "-1", "nan", "inf", "x")),
    "treatments.amasaki15.attr_mad_mult": (("1.0", "2", "0", "1e-3"),
                                           ("-1", "nan", "inf", "x")),
    "treatments.amasaki15.relevancy_mult": (("2.0", "0.5", "0", "3"),
                                            ("-1", "nan", "-inf", "x")),
    "report.stability_threshold": (("0.05", "0", "0.1", "1"),
                                   ("-0.01", "nan", "inf", "low")),
}


def test_values_cover_every_key():
    assert list(VALUES) == list(CONFIG_KEYS)


@st.composite
def mappings(draw):
    invalid_keys = [k for k, (_, invalid) in VALUES.items() if invalid]
    bad = draw(st.lists(st.sampled_from(invalid_keys), max_size=2, unique=True)
               if draw(st.booleans()) else st.just([]))
    mapping = {}
    for key, (good, invalid) in VALUES.items():
        if key in bad:
            mapping[key] = draw(st.sampled_from(invalid))
            continue
        # absent, empty or valid; the required keys are there most of the time
        absent = 1 if key in ("dataset.path", "run.seed") else 10
        choice = draw(st.integers(0, 39))
        if choice >= absent:
            mapping[key] = "" if choice < absent + 2 else draw(st.sampled_from(good))
    if draw(st.integers(0, 9)) == 0:
        mapping[draw(st.sampled_from(("runn.seed", "tree.depth", "dataset")))] = "1"
    return mapping


@settings(max_examples=500, deadline=None)
@given(mappings())
def test_key_table_matches_hand_kept_lists(mapping):
    try:
        expected = oracle.from_mapping(mapping, BASE)
    except ConfigError:
        event("rejected by both")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(mapping, BASE)
        return
    except TypeError:
        # the oracle's known fault: base / None on an empty dataset.path
        event("empty dataset.path")
        assert mapping["dataset.path"] == ""
        with pytest.raises(ConfigError, match="dataset.path is required"):
            ExperimentConfig.from_mapping(mapping, BASE)
        return
    event("accepted by both")
    actual = ExperimentConfig.from_mapping(mapping, BASE)
    assert config_hash(actual) == oracle.config_hash(expected)
    assert actual.output_dir == expected.output_dir
    assert actual == expected
