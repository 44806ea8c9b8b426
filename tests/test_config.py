"""Config parsing, validation, and hashing."""

from pathlib import Path

import pytest

from timeaware_cpdp.config import (CONFIG_KEYS, DEFAULT_TECHNIQUES,
                                   ExperimentConfig, config_hash,
                                   parse_config_text)
from timeaware_cpdp.errors import ConfigError
from timeaware_cpdp.pairs import ConfigurationKind

MINIMAL = {"dataset.path": "data.csv", "run.seed": "17"}
README = Path(__file__).resolve().parent.parent / "README.md"


def test_parse_config_text_basics():
    text = """
    # a comment
    dataset.path = releases.csv

    run.seed = 5
    run.techniques = ma12, nam15
    """
    mapping = parse_config_text(text)
    assert mapping == {"dataset.path": "releases.csv", "run.seed": "5",
                       "run.techniques": "ma12, nam15"}


def test_parse_config_text_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot a pair")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("a = 1\n\n= orphan value")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2")


def test_minimal_mapping_uses_defaults():
    cfg = ExperimentConfig.from_mapping(MINIMAL, base_dir=Path("/tmp"))
    assert cfg.dataset_path == Path("/tmp/data.csv")
    assert cfg.seed == 17
    assert cfg.granularity_months == 6
    assert cfg.gap_buckets == 1
    assert cfg.configurations == (
        ConfigurationKind.CC, ConfigurationKind.IC,
        ConfigurationKind.CI, ConfigurationKind.II)
    assert cfg.techniques == DEFAULT_TECHNIQUES
    assert cfg.balance is False
    assert cfg.baseline_crossval is None
    assert cfg.tree_params.pruning_confidence == 0.25
    assert cfg.tree_params.min_leaf_weight == 2.0
    assert cfg.schema.project_col == "project"
    assert cfg.schema.feature_cols is None
    assert cfg.output_dir == Path("/tmp/out")


def test_required_keys():
    with pytest.raises(ConfigError, match="dataset.path"):
        ExperimentConfig.from_mapping({"run.seed": "1"})
    with pytest.raises(ConfigError, match="run.seed"):
        ExperimentConfig.from_mapping({"dataset.path": "x.csv"})
    # present but empty is as good as missing
    with pytest.raises(ConfigError, match="dataset.path is required"):
        ExperimentConfig.from_mapping({"dataset.path": "", "run.seed": "1"})
    with pytest.raises(ConfigError, match="run.seed is required"):
        ExperimentConfig.from_mapping({"dataset.path": "x.csv", "run.seed": ""})


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: runn.seed"):
        ExperimentConfig.from_mapping(dict(MINIMAL, **{"runn.seed": "1"}))
    # nam15 has one rule, the median cut, and no key to pick another
    key = "treatments.nam15.violation_threshold"
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
        ExperimentConfig.from_mapping(dict(MINIMAL, **{key: "0.5"}))


def test_type_errors_become_config_errors():
    for key, value in (("run.seed", "abc"),
                       ("buckets.granularity_months", "1.5"),
                       ("pairs.gap_buckets", "one"),
                       ("run.balance", "maybe"),
                       ("tree.pruning_confidence", "high"),
                       ("report.stability_threshold", "low")):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(dict(MINIMAL, **{key: value}))


def test_configuration_list_parsing():
    cfg = ExperimentConfig.from_mapping(
        dict(MINIMAL, **{"pairs.configurations": "cc, ii"}))
    assert cfg.configurations == (ConfigurationKind.CC, ConfigurationKind.II)
    with pytest.raises(ConfigError, match="unknown configuration"):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"pairs.configurations": "CC,XX"}))
    with pytest.raises(ConfigError, match="duplicates"):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"pairs.configurations": "CC,CC"}))
    with pytest.raises(ConfigError, match="baseline"):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"pairs.configurations": "CC,CROSSVAL"}))


def test_empty_configurations_need_a_baseline():
    with pytest.raises(ConfigError, match="at least one configuration"):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"pairs.configurations": ""}))
    cfg = ExperimentConfig.from_mapping(
        dict(MINIMAL, **{"pairs.configurations": "",
                         "run.baseline_crossval": "10"}))
    assert cfg.configurations == ()
    assert cfg.baseline_crossval == 10


def test_technique_validation():
    cfg = ExperimentConfig.from_mapping(
        dict(MINIMAL, **{"run.techniques": "identity, ma12"}))
    assert cfg.techniques == ("identity", "ma12")
    with pytest.raises(ConfigError, match="unknown techniques"):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"run.techniques": "ma12,bogus"}))
    with pytest.raises(ConfigError, match="duplicate"):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"run.techniques": "ma12,ma12"}))
    with pytest.raises(ConfigError, match="at least one technique"):
        ExperimentConfig.from_mapping(dict(MINIMAL, **{"run.techniques": ","}))


def test_numeric_range_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"buckets.granularity_months": "0"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(dict(MINIMAL, **{"pairs.gap_buckets": "-1"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"run.baseline_crossval": "1"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"tree.pruning_confidence": "0.05"}))


@pytest.mark.parametrize("key,name,value", [
    ("treatments.amasaki15.attr_mad_mult", "amasaki_attr_mad_mult", "nan"),
    ("treatments.amasaki15.attr_mad_mult", "amasaki_attr_mad_mult", "inf"),
    ("treatments.amasaki15.attr_mad_mult", "amasaki_attr_mad_mult", "-0.5"),
    ("treatments.amasaki15.relevancy_mult", "amasaki_relevancy_mult", "nan"),
    ("treatments.amasaki15.relevancy_mult", "amasaki_relevancy_mult", "-inf"),
    ("treatments.amasaki15.relevancy_mult", "amasaki_relevancy_mult", "-1"),
    ("report.stability_threshold", "stability_threshold", "nan"),
    ("report.stability_threshold", "stability_threshold", "inf"),
    ("report.stability_threshold", "stability_threshold", "-0.05"),
])
def test_out_of_range_settings_fail_from_file_and_constructor(tmp_path, key, name,
                                                              value):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"dataset.path = x.csv\nrun.seed = 1\n{key} = {value}\n",
                        encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_file(cfg_file)
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(dataset_path=Path("x.csv"), seed=1, **{name: float(value)})
    # the end of the range is allowed
    ExperimentConfig(dataset_path=Path("x.csv"), seed=1, **{name: 0.0})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_min_leaf_weight_is_a_config_error(value):
    with pytest.raises(ConfigError, match="tree.min_leaf_weight"):
        ExperimentConfig.from_mapping(
            dict(MINIMAL, **{"tree.min_leaf_weight": value}))


@pytest.mark.parametrize("key,value,message", [
    ("tree.pruning_confidence", "0.05", "0.05 outside [0.10, 0.30]"),
    ("tree.pruning_confidence", "0.31", "0.31 outside [0.10, 0.30]"),
    ("tree.min_leaf_weight", "0", "must be positive and finite, got 0.0"),
    ("tree.min_leaf_weight", "-2", "must be positive and finite, got -2.0"),
])
def test_tree_range_errors_name_the_config_key(key, value, message):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_mapping(dict(MINIMAL, **{key: value}))
    assert str(info.value) == f"{key} {message}"


def test_schema_and_feature_cols():
    cfg = ExperimentConfig.from_mapping(dict(MINIMAL, **{
        "dataset.project_col": "name",
        "dataset.feature_cols": "wmc, rfc ,cbo"}))
    assert cfg.schema.project_col == "name"
    assert cfg.schema.feature_cols == ("wmc", "rfc", "cbo")


def test_from_file_resolves_relative_paths(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "dataset.path = data/releases.csv\n"
        "run.seed = 3\n"
        "run.output_dir = results\n", encoding="utf-8")
    cfg = ExperimentConfig.from_file(cfg_file)
    assert cfg.dataset_path == (tmp_path / "data/releases.csv").resolve()
    assert cfg.output_dir == (tmp_path / "results").resolve()
    with pytest.raises(ConfigError, match="cannot read"):
        ExperimentConfig.from_file(tmp_path / "missing.cfg")



def test_from_file_accepts_a_byte_order_mark(tmp_path):
    """A BOM is accepted in a config, as it is in a dataset."""
    text = "dataset.path = data/releases.csv\nrun.seed = 3\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    cfg = ExperimentConfig.from_file(marked)
    assert cfg == ExperimentConfig.from_file(plain)
    assert cfg.seed == 3
    assert config_hash(cfg) == config_hash(ExperimentConfig.from_file(plain))

def test_hash_ignores_output_dir_but_not_seed():
    a = ExperimentConfig.from_mapping(MINIMAL, base_dir=Path("/tmp"))
    b = ExperimentConfig.from_mapping(
        dict(MINIMAL, **{"run.output_dir": "elsewhere"}), base_dir=Path("/tmp"))
    c = ExperimentConfig.from_mapping(
        dict(MINIMAL, **{"run.seed": "18"}), base_dir=Path("/tmp"))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64
    keys = [k for k, _ in a.canonical_items()]
    assert "run.output_dir" not in keys
    assert len(keys) == len(set(keys))


def test_readme_reference_lists_every_key_with_its_default():
    text = README.read_text(encoding="utf-8")
    start = text.index("```ini\n", text.index("## Configuration reference")) + 7
    block = text[start:text.index("```", start)]
    mapping = parse_config_text(
        "\n".join(line.partition("#")[0] for line in block.splitlines()))
    assert list(mapping) == list(CONFIG_KEYS)
    documented = ExperimentConfig.from_mapping(mapping, base_dir=Path("/tmp"))
    minimal = ExperimentConfig.from_mapping(
        {"dataset.path": mapping["dataset.path"], "run.seed": mapping["run.seed"]},
        base_dir=Path("/tmp"))
    assert documented.canonical_items() == minimal.canonical_items()
    assert documented.output_dir == minimal.output_dir
