"""The package loads no OpenSSL.

``import hashlib`` imports ``_hashlib``, which maps OpenSSL's libcrypto
into the process: about 3.6 MB of resident memory, a tenth of a run's
peak. The package takes SHA-256 and BLAKE2b from CPython's builtin hash
modules, in ``_digest``. One test runs ``run --dump-trees`` and
``validate`` with under-sampling and the cross-validation baseline, so
that pair_seed, training_order and config_hash all hash, in a fresh
interpreter (pytest's own process may have imported hashlib already),
and checks that ``_hashlib`` was never imported. Another walks the
syntax tree of every module of the package: ``hashlib`` may appear only
in ``_digest``'s ``except ImportError`` fallback.
"""

import ast
import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

from e2e import write_experiment

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "timeaware_cpdp"
MODULES = sorted(PACKAGE.rglob("*.py"))
HOME = PACKAGE / "_digest.py"
HASHLIB = {"hashlib", "_hashlib"}

# in a fresh interpreter: count the calls that hash, run the two
# commands, and print the counts and whether _hashlib was imported
PROBE = """
import json, sys
from timeaware_cpdp import cli, runner

counts = dict.fromkeys(("pair_seed", "training_order", "config_hash"), 0)

def counted(name):
    function = getattr(runner, name)
    def call(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)
    setattr(runner, name, call)

for name in counts:
    counted(name)
config = sys.argv[1]
codes = [cli.main(["run", "--config", config, "--dump-trees"]),
         cli.main(["validate", "--config", config])]
print(json.dumps({"codes": codes, "counts": counts,
                  "_hashlib": "_hashlib" in sys.modules}))
"""


def _missing_builtins() -> list[str]:
    missing = [] if find_spec("_blake2") else ["_blake2"]
    if not (find_spec("_sha2") or find_spec("_sha256")):
        missing.append("_sha2 or _sha256")
    return missing


@pytest.mark.skipif(bool(_missing_builtins()), reason=(
    f"this interpreter has no {' and no '.join(_missing_builtins())}, "
    "so the package takes its digests from hashlib"))
def test_run_and_validate_never_import_hashlib(tmp_path):
    cfg = write_experiment(tmp_path, **{"run.balance": "true",
                                        "run.baseline_crossval": "3"})
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(cfg)], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0]
    assert all(probe["counts"].values()), probe["counts"]
    assert probe["_hashlib"] is False


def hashlib_uses(source: str) -> list[tuple[int, bool]]:
    """(line, in a fallback) of every mention of hashlib in the source text.

    A mention is in a fallback when it is an import in the body of an
    ``except ImportError`` handler.
    """
    module = ast.parse(source)
    fallback = {id(node)
                for handler in ast.walk(module)
                if isinstance(handler, ast.ExceptHandler)
                and isinstance(handler.type, ast.Name)
                and handler.type.id == "ImportError"
                for statement in handler.body
                for node in ast.walk(statement)
                if isinstance(node, (ast.Import, ast.ImportFrom))}
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant):
            names = [node.value]
        else:
            continue
        if HASHLIB.intersection(names):
            found.append((node.lineno, id(node) in fallback))
    return sorted(found)


def test_guard_sees_the_package_and_the_fallback():
    assert HOME in MODULES and PACKAGE / "tree.py" in MODULES
    uses = hashlib_uses(HOME.read_text(encoding="utf-8"))
    assert uses and all(in_fallback for _, in_fallback in uses)


@pytest.mark.parametrize("module", [m for m in MODULES if m != HOME],
                         ids=lambda path: path.name)
def test_package_module_never_mentions_hashlib(module):
    assert hashlib_uses(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, uses", [
    ("import hashlib", [(1, False)]),
    ("import _hashlib", [(1, False)]),
    ("from hashlib import sha256", [(1, False)]),
    ("digest = hashlib.sha256(b'')", [(1, False)]),
    ("module = importlib.import_module('hashlib')", [(1, False)]),
    ("try:\n    import hashlib\nexcept ImportError:\n    pass", [(2, False)]),
    ("try:\n    import _sha2\nexcept OSError:\n    import hashlib",
     [(4, False)]),
    ("try:\n    from _sha2 import sha256\nexcept ImportError:\n"
     "    from hashlib import sha256", [(4, True)]),
    ("try:\n    import _sha2\nexcept ImportError:\n    try:\n"
     "        import _sha256\n    except ImportError:\n"
     "        import hashlib", [(7, True)]),
    ("try:\n    import _sha2\nexcept ImportError:\n    sha256 = hashlib.sha256",
     [(4, False)]),
])
def test_guard_finds_each_use_and_each_fallback(source, uses):
    assert hashlib_uses(source) == uses
