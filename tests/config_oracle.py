"""Reference config parsing: the hand-kept key lists the key table replaced.

``from_mapping`` and ``canonical_items`` are the former
``ExperimentConfig`` methods, with their helpers, as functions. Each
key is named in ``_KNOWN_KEYS``, parsed with a string default in
``from_mapping`` and printed in ``canonical_items``. They build and read
the current ``ExperimentConfig``, so its range checks apply to both.
One known fault is kept: an empty ``dataset.path`` raises ``TypeError``
(``base / None``) instead of a ``ConfigError``.
``tests/test_config_oracle.py`` checks the table-driven parser against
this one.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Mapping

from timeaware_cpdp.config import DEFAULT_TECHNIQUES, ExperimentConfig
from timeaware_cpdp.dataset import DatasetSchema
from timeaware_cpdp.errors import ConfigError
from timeaware_cpdp.pairs import ConfigurationKind
from timeaware_cpdp.tree import TreeParams

_KNOWN_KEYS = {
    "dataset.path",
    "dataset.project_col",
    "dataset.version_col",
    "dataset.date_col",
    "dataset.class_col",
    "dataset.defects_col",
    "dataset.feature_cols",
    "buckets.granularity_months",
    "pairs.gap_buckets",
    "pairs.configurations",
    "run.techniques",
    "run.seed",
    "run.balance",
    "run.baseline_crossval",
    "run.output_dir",
    "tree.pruning_confidence",
    "tree.min_leaf_weight",
    "treatments.amasaki15.attr_mad_mult",
    "treatments.amasaki15.relevancy_mult",
    "report.stability_threshold",
}


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {value!r}") from None


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None


def _to_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: not a boolean: {value!r}")


def from_mapping(mapping: Mapping[str, str],
                 base_dir: Path | None = None) -> ExperimentConfig:
    cls = ExperimentConfig
    base = base_dir or Path.cwd()
    unknown = sorted(set(mapping) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "dataset.path" not in mapping:
        raise ConfigError("dataset.path is required")
    if "run.seed" not in mapping:
        raise ConfigError("run.seed is required")

    def get(key: str, default: str | None = None) -> str | None:
        value = mapping.get(key)
        if value is None or value == "":
            return default
        return value

    feature_cols_raw = get("dataset.feature_cols")
    schema = DatasetSchema(
        project_col=get("dataset.project_col", "project"),
        version_col=get("dataset.version_col", "version"),
        date_col=get("dataset.date_col", "release_date"),
        class_col=get("dataset.class_col", "class"),
        defects_col=get("dataset.defects_col", "defects"),
        feature_cols=tuple(
            c.strip() for c in feature_cols_raw.split(",") if c.strip())
        if feature_cols_raw else None)

    # an explicitly empty value means "no time-aware configurations",
    # which is valid together with run.baseline_crossval
    configurations_raw = mapping.get("pairs.configurations", "CC,IC,CI,II")
    kinds = []
    for token in configurations_raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() == ConfigurationKind.CROSSVAL.value:
            raise ConfigError(
                "pairs.configurations: use run.baseline_crossval for the baseline")
        try:
            kind = ConfigurationKind(token.upper())
        except ValueError:
            raise ConfigError(
                f"pairs.configurations: unknown configuration {token!r}") from None
        kinds.append(kind)
    if len(set(kinds)) != len(kinds):
        raise ConfigError("pairs.configurations: duplicates")

    techniques_raw = get("run.techniques", ",".join(DEFAULT_TECHNIQUES))
    techniques = tuple(
        t.strip() for t in techniques_raw.split(",") if t.strip())

    try:
        tree_params = TreeParams(
            pruning_confidence=_to_float(
                "tree.pruning_confidence", get("tree.pruning_confidence", "0.25")),
            min_leaf_weight=_to_float(
                "tree.min_leaf_weight", get("tree.min_leaf_weight", "2.0")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    baseline_raw = get("run.baseline_crossval")

    return cls(
        dataset_path=(base / get("dataset.path")).resolve(),
        seed=_to_int("run.seed", mapping["run.seed"]),
        schema=schema,
        granularity_months=_to_int(
            "buckets.granularity_months", get("buckets.granularity_months", "6")),
        gap_buckets=_to_int("pairs.gap_buckets", get("pairs.gap_buckets", "1")),
        configurations=tuple(kinds),
        techniques=techniques,
        tree_params=tree_params,
        balance=_to_bool("run.balance", get("run.balance", "false")),
        baseline_crossval=_to_int("run.baseline_crossval", baseline_raw)
        if baseline_raw is not None else None,
        output_dir=(base / get("run.output_dir", "out")).resolve(),
        amasaki_attr_mad_mult=_to_float(
            "treatments.amasaki15.attr_mad_mult",
            get("treatments.amasaki15.attr_mad_mult", "1.0")),
        amasaki_relevancy_mult=_to_float(
            "treatments.amasaki15.relevancy_mult",
            get("treatments.amasaki15.relevancy_mult", "2.0")),
        stability_threshold=_to_float(
            "report.stability_threshold", get("report.stability_threshold", "0.05")))


def canonical_items(self: ExperimentConfig) -> list[tuple[str, str]]:
    """Stable key/value form of everything that defines the experiment.

    The dataset and output paths are deliberately left out: the same
    experiment on the same data in another directory must not change
    its hash.
    """
    schema = self.schema
    items = [
        ("dataset.project_col", schema.project_col),
        ("dataset.version_col", schema.version_col),
        ("dataset.date_col", schema.date_col),
        ("dataset.class_col", schema.class_col),
        ("dataset.defects_col", schema.defects_col),
        ("dataset.feature_cols",
         ",".join(schema.feature_cols) if schema.feature_cols else ""),
        ("buckets.granularity_months", str(self.granularity_months)),
        ("pairs.gap_buckets", str(self.gap_buckets)),
        ("pairs.configurations",
         ",".join(k.value for k in self.configurations)),
        ("run.techniques", ",".join(self.techniques)),
        ("run.seed", str(self.seed)),
        ("run.balance", str(self.balance).lower()),
        ("run.baseline_crossval",
         "" if self.baseline_crossval is None else str(self.baseline_crossval)),
        ("tree.pruning_confidence", repr(self.tree_params.pruning_confidence)),
        ("tree.min_leaf_weight", repr(self.tree_params.min_leaf_weight)),
        ("treatments.amasaki15.attr_mad_mult", repr(self.amasaki_attr_mad_mult)),
        ("treatments.amasaki15.relevancy_mult", repr(self.amasaki_relevancy_mult)),
        ("report.stability_threshold", repr(self.stability_threshold)),
    ]
    return items


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the canonical key/value lines."""
    text = "\n".join(f"{k}={v}" for k, v in canonical_items(config))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
