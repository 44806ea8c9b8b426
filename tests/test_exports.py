"""README's "Library use" section names only what the package exports."""

import re
from pathlib import Path

import timeaware_cpdp

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_names() -> list[str]:
    """Names imported from the package or quoted as `name` / `name(...)`."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    names = []
    for imported in re.findall(r"^from timeaware_cpdp import (.+)$", section,
                               flags=re.MULTILINE):
        names += [name.strip() for name in imported.split(",")]
    names += re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", section)
    return names


def test_library_use_names_are_exported():
    names = library_use_names()
    assert {"ExperimentConfig", "run_experiment", "train_tree",
            "predict_proba_rows", "evaluate_pair", "write_reports"} <= set(names)
    missing = [name for name in names if not hasattr(timeaware_cpdp, name)]
    assert missing == []
