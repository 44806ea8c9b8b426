"""Experiment configuration: flat key = value text with dotted keys.

Example:

    dataset.path = releases.csv
    run.seed = 17
    pairs.configurations = CC,IC

``CONFIG_KEYS`` lists every key; README's "Configuration reference"
gives each with its default. Blank lines and lines starting with '#'
are ignored. Unknown or duplicate keys are rejected. A key left empty
keeps its default, except that an empty ``pairs.configurations`` means
"baseline only". Relative paths are resolved against the directory of
the config file. ``dataset.path`` and ``run.seed`` are required.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

from ._digest import sha256
from .dataset import DatasetSchema, ascii_number
from .errors import ConfigError
from .pairs import ConfigurationKind
from .stability import STABILITY_THRESHOLD, _fmt
from .tree import TreeParams
from .treatments import TREATMENT_NAMES

DEFAULT_TECHNIQUES = ("watanabe08", "camargocruz09", "ma12", "amasaki15", "nam15")


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


def _names(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _kinds(text: str) -> tuple[ConfigurationKind, ...]:
    kinds = []
    for token in _names(text):
        if token.lower() == ConfigurationKind.CROSSVAL.value:
            raise ValueError("use run.baseline_crossval for the baseline")
        try:
            kinds.append(ConfigurationKind(token.upper()))
        except ValueError:
            raise ValueError(f"unknown configuration {token!r}") from None
    return tuple(kinds)


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_int = partial(ascii_number, int)
_float = partial(ascii_number, float)
# Every config key in canonical order: the part of ExperimentConfig it
# sets (None for the config itself), the field, and the parser of its
# text. A parser raises ValueError on text it cannot read; numbers are
# read as parse_dataset reads them.
CONFIG_KEYS: dict[str, tuple[str | None, str, Callable[[str], object]]] = {
    "dataset.path": (None, "dataset_path", Path),
    "dataset.project_col": ("schema", "project_col", str),
    "dataset.version_col": ("schema", "version_col", str),
    "dataset.date_col": ("schema", "date_col", str),
    "dataset.class_col": ("schema", "class_col", str),
    "dataset.defects_col": ("schema", "defects_col", str),
    "dataset.feature_cols": ("schema", "feature_cols", _names),
    "buckets.granularity_months": (None, "granularity_months", _int),
    "pairs.gap_buckets": (None, "gap_buckets", _int),
    "pairs.configurations": (None, "configurations", _kinds),
    "run.techniques": (None, "techniques", _names),
    "run.seed": (None, "seed", _int),
    "run.balance": (None, "balance", _bool),
    "run.baseline_crossval": (None, "baseline_crossval", _int),
    "run.output_dir": (None, "output_dir", Path),
    "tree.pruning_confidence": ("tree_params", "pruning_confidence", _float),
    "tree.min_leaf_weight": ("tree_params", "min_leaf_weight", _float),
    "treatments.amasaki15.attr_mad_mult": (None, "amasaki_attr_mad_mult", _float),
    "treatments.amasaki15.relevancy_mult": (None, "amasaki_relevancy_mult", _float),
    "report.stability_threshold": (None, "stability_threshold", _float),
}


def _canonical(value) -> str:
    if isinstance(value, tuple):
        return ",".join(getattr(v, "value", v) for v in value)
    return _fmt(value)


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
    stability_threshold: float = STABILITY_THRESHOLD

    def __post_init__(self) -> None:
        if not self.configurations and self.baseline_crossval is None:
            raise ConfigError(
                "need at least one configuration or a baseline_crossval fold count")
        if len(set(self.configurations)) != len(self.configurations):
            raise ConfigError("pairs.configurations: duplicates")
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
        for key, value in (
                ("treatments.amasaki15.attr_mad_mult", self.amasaki_attr_mad_mult),
                ("treatments.amasaki15.relevancy_mult", self.amasaki_relevancy_mult),
                ("report.stability_threshold", self.stability_threshold)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str],
                     base_dir: Path | None = None) -> "ExperimentConfig":
        unknown = sorted(set(mapping) - CONFIG_KEYS.keys())
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key in ("dataset.path", "run.seed"):
            if not mapping.get(key):
                raise ConfigError(f"{key} is required")
        parts: dict[str | None, dict] = {None: {}, "schema": {}, "tree_params": {}}
        for key, (part, name, parse) in CONFIG_KEYS.items():
            text = mapping.get(key, "")
            # an explicitly empty value means "no time-aware configurations",
            # which is valid together with run.baseline_crossval
            if text or (key == "pairs.configurations" and key in mapping):
                try:
                    parts[part][name] = parse(text)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from None
        try:
            tree_params = TreeParams(**parts["tree_params"])
        except ValueError as exc:
            # TreeParams checks its own ranges; its messages start with
            # the field, which is the key after "tree."
            raise ConfigError(f"tree.{exc}") from None
        config = cls(**parts[None], schema=DatasetSchema(**parts["schema"]),
                     tree_params=tree_params)
        base = base_dir or Path.cwd()
        return dataclasses.replace(
            config, dataset_path=(base / config.dataset_path).resolve(),
            output_dir=(base / config.output_dir).resolve())

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_mapping(parse_config_text(text), base_dir=path.parent)

    def canonical_items(self) -> list[tuple[str, str]]:
        """Stable key/value form of everything that defines the experiment.

        The dataset and output paths are deliberately left out: the same
        experiment on the same data in another directory must not change
        its hash.
        """
        return [(key, _canonical(getattr(getattr(self, part) if part else self, name)))
                for key, (part, name, _) in CONFIG_KEYS.items()
                if key not in ("dataset.path", "run.output_dir")]


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the canonical key/value lines."""
    text = "\n".join(f"{k}={v}" for k, v in config.canonical_items())
    return sha256(text.encode("utf-8")).hexdigest()
