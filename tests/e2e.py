"""Shared end-to-end fixture: a small synthetic dataset plus config files."""

import importlib.util
import random
from pathlib import Path

# mostly single-release projects so that strict cross-project filtering
# keeps both the time-aware pairs and the cross-validation folds alive
RELEASES = (
    ("alpha", "1.0", "2001-01-15"),
    ("beta", "1.0", "2001-03-10"),
    ("gamma", "1.0", "2001-08-01"),
    ("delta", "1.0", "2001-09-20"),
    ("epsilon", "1.0", "2002-02-14"),
    ("zeta", "1.0", "2002-03-05"),
    ("alpha", "2.0", "2002-08-09"),
    ("eta", "1.0", "2002-09-30"),
)

N_FEATURES = 3
ROWS_PER_RELEASE = 12
DEFECTIVE_PER_RELEASE = 5


def toy_csv(seed: int = 42) -> str:
    """Deterministic dataset: defective classes have larger metric values."""
    rng = random.Random(seed)
    lines = ["project,version,release_date,class,defects,f1,f2,f3"]
    for project, version, day in RELEASES:
        for i in range(ROWS_PER_RELEASE):
            defective = i < DEFECTIVE_PER_RELEASE
            center = 8.0 if defective else 3.0
            feats = [max(0.0, rng.gauss(center, 1.0)) for _ in range(N_FEATURES)]
            defects = rng.randint(1, 4) if defective else 0
            feat_text = ",".join(repr(round(f, 3)) for f in feats)
            lines.append(f"{project},{version},{day},"
                         f"{project}.C{i},{defects},{feat_text}")
    return "\n".join(lines) + "\n"


def write_experiment(tmp_path: Path, seed: int = 17,
                     **overrides: str) -> Path:
    """Write dataset + config into tmp_path, return the config path.

    overrides are raw config lines keyed by the dotted config key; a
    None value removes the key from the defaults.
    """
    data = tmp_path / "releases.csv"
    if not data.exists():
        data.write_text(toy_csv(), encoding="utf-8")
    settings: dict[str, str | None] = {
        "dataset.path": "releases.csv",
        "run.seed": str(seed),
        "buckets.granularity_months": "6",
        "pairs.gap_buckets": "0",
        "run.output_dir": "out",
    }
    settings.update(overrides)
    text = "".join(f"{k} = {v}\n" for k, v in settings.items() if v is not None)
    config = tmp_path / "experiment.cfg"
    config.write_text(text, encoding="utf-8")
    return config


def make_demo(out: Path, seed: int) -> None:
    """Write the quick-start demo of scripts/make_demo.py into out."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_demo.py"
    spec = importlib.util.spec_from_file_location("make_demo", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.generate(out, seed=seed)
