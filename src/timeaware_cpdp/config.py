"""Experiment configuration: flat key = value text with dotted keys.

Example:

    dataset.path = releases.csv
    dataset.date_col = release_date
    buckets.granularity_months = 6
    pairs.gap_buckets = 1
    pairs.configurations = CC,IC,CI,II
    run.techniques = watanabe08,camargocruz09,ma12,amasaki15,nam15
    run.seed = 17
    run.balance = false
    run.baseline_crossval = 10
    run.output_dir = out
    tree.pruning_confidence = 0.25
    tree.min_leaf_weight = 2.0
    treatments.amasaki15.attr_mad_mult = 1.0
    treatments.amasaki15.relevancy_mult = 2.0
    treatments.nam15.violation_threshold = 0.5
    report.stability_threshold = 0.05

Blank lines and lines starting with '#' are ignored. Unknown or
duplicate keys are rejected. Relative paths are resolved against the
directory of the config file. The seed is mandatory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .dataset import DatasetSchema
from .errors import ConfigError
from .pairs import ConfigurationKind
from .tree import TreeParams
from .treatments import TREATMENT_NAMES

DEFAULT_TECHNIQUES = ("watanabe08", "camargocruz09", "ma12", "amasaki15", "nam15")

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
    "treatments.nam15.violation_threshold",
    "report.stability_threshold",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key = value lines into a mapping."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"config line {line_no}: empty key")
        if key in out:
            raise ConfigError(f"config line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


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


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: Path
    seed: int
    schema: DatasetSchema = field(default_factory=DatasetSchema)
    granularity_months: int = 6
    gap_buckets: int = 1
    configurations: tuple[ConfigurationKind, ...] = (
        ConfigurationKind.CC, ConfigurationKind.IC,
        ConfigurationKind.CI, ConfigurationKind.II)
    techniques: tuple[str, ...] = DEFAULT_TECHNIQUES
    tree_params: TreeParams = field(default_factory=TreeParams)
    balance: bool = False
    baseline_crossval: int | None = None
    output_dir: Path = Path("out")
    amasaki_attr_mad_mult: float = 1.0
    amasaki_relevancy_mult: float = 2.0
    nam_violation_threshold: float | None = None
    stability_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not self.configurations and self.baseline_crossval is None:
            raise ConfigError(
                "need at least one configuration or a baseline_crossval fold count")
        if not self.techniques:
            raise ConfigError("need at least one technique")
        unknown = [t for t in self.techniques if t not in TREATMENT_NAMES]
        if unknown:
            raise ConfigError(
                f"unknown techniques: {', '.join(unknown)}; "
                f"known: {', '.join(TREATMENT_NAMES)}")
        if len(set(self.techniques)) != len(self.techniques):
            raise ConfigError("duplicate technique names")
        if self.granularity_months < 1:
            raise ConfigError("buckets.granularity_months must be >= 1")
        if self.gap_buckets < 0:
            raise ConfigError("pairs.gap_buckets must be >= 0")
        if self.baseline_crossval is not None and self.baseline_crossval < 2:
            raise ConfigError("run.baseline_crossval must be >= 2")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str],
                     base_dir: Path | None = None) -> "ExperimentConfig":
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
        nam_raw = get("treatments.nam15.violation_threshold")
        nam_threshold = _to_float("treatments.nam15.violation_threshold", nam_raw) \
            if nam_raw is not None else None
        if nam_threshold is not None and not 0 <= nam_threshold <= 1:
            raise ConfigError(
                "treatments.nam15.violation_threshold must lie in [0, 1]")

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
            nam_violation_threshold=nam_threshold,
            stability_threshold=_to_float(
                "report.stability_threshold", get("report.stability_threshold", "0.05")))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_mapping(parse_config_text(text), base_dir=path.parent)

    def canonical_items(self) -> list[tuple[str, str]]:
        """Stable key/value form of everything that defines the experiment.

        The output directory is deliberately left out: writing the same
        experiment somewhere else must not change its hash.
        """
        schema = self.schema
        items = [
            ("dataset.path", str(self.dataset_path)),
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
            ("treatments.nam15.violation_threshold",
             "" if self.nam_violation_threshold is None
             else repr(self.nam_violation_threshold)),
            ("report.stability_threshold", repr(self.stability_threshold)),
        ]
        return items


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the canonical key/value lines."""
    text = "\n".join(f"{k}={v}" for k, v in config.canonical_items())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
