"""The package makes no BLAS call and starts no BLAS thread.

OpenBLAS starts a pool of worker threads when NumPy loads and keeps
them spinning for a while, at load and again after each BLAS routine
returns. One matrix product per amasaki15 call was enough to make a
one-thread run of the quick-start demo use 1.5 times its wall time in
CPU time, and the pool's spin at load alone costs about 0.1 s of CPU in
every process. One guard walks the syntax tree of every module of the
package and fails on a ``@`` operator, on a call of a NumPy routine that
goes to BLAS (``dot``, ``vdot``, ``matmul``, ``inner``, ``tensordot``,
``einsum``) and on any use of ``linalg``. The other runs ``validate`` in
a fresh interpreter, since pytest's own process may have loaded NumPy
or set the variable, and reads ``OPENBLAS_NUM_THREADS`` at the moment
NumPy is first looked up: the package sets it to 1 unless the user set
it, and leaves it alone when NumPy was imported first.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import write_experiment

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "timeaware_cpdp"
MODULES = sorted(PACKAGE.rglob("*.py"))
BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}


def _name(node) -> str | None:
    """The name a Name or Attribute node ends in; None for other nodes."""
    return getattr(node, "attr", None) or getattr(node, "id", None)


def blas_uses(source: str) -> list[tuple[int, str]]:
    """(line, construct) of every BLAS use in the source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and _name(node.func) in BLAS_CALLS:
            found.append((node.lineno, f"{_name(node.func)}()"))
        elif _name(node) == "linalg":
            found.append((node.lineno, "linalg"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            if any("linalg" in name for name in names):
                found.append((node.lineno, "linalg import"))
    return sorted(found)


def test_guard_sees_the_package():
    assert PACKAGE / "treatments.py" in MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_package_module_makes_no_blas_call(module):
    assert blas_uses(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, construct", [
    ("c = a @ b", "@"),
    ("c @= b", "@"),
    ("c = np.dot(a, b)", "dot()"),
    ("c = a.dot(b)", "dot()"),
    ("c = np.vdot(a, b)", "vdot()"),
    ("c = np.matmul(a, b)", "matmul()"),
    ("c = np.inner(a, b)", "inner()"),
    ("c = np.tensordot(a, b, 1)", "tensordot()"),
    ("c = np.einsum('ij,jk', a, b)", "einsum()"),
    ("c = np.linalg.norm(a)", "linalg"),
    ("from numpy.linalg import norm", "linalg import"),
    ("from numpy import linalg", "linalg import"),
    ("import numpy.linalg", "linalg import"),
])
def test_guard_finds_each_blas_construct(source, construct):
    assert [c for _, c in blas_uses(source)] == [construct]


def test_guard_passes_decorators_and_elementwise_code():
    source = ("@dataclass\nclass A:\n    pass\n"
              "c = np.subtract.outer(a, b)\nc *= c\n")
    assert blas_uses(source) == []


# in a fresh interpreter: record OPENBLAS_NUM_THREADS when numpy is first
# looked up, import the package (after numpy when argv[2] says so), run
# validate, and print what was seen, the variable and the thread count
PROBE = """
import json, os, sys

seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Spy())
if sys.argv[2] == "numpy-first":
    import numpy
from timeaware_cpdp import cli

code = cli.main(["validate", "--config", sys.argv[1]])
tasks = "/proc/self/task"
print(json.dumps({"code": code, "seen": seen,
                  "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir(tasks)) if os.path.isdir(tasks)
                  else None}))
"""


def probe(tmp_path, user_value, order):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(write_experiment(tmp_path)), order],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return result


def test_package_asks_for_one_blas_thread_before_numpy_loads(tmp_path):
    result = probe(tmp_path, None, "package-first")
    assert result["seen"] == ["1"]
    assert result["variable"] == "1"
    if result["threads"] is None:
        pytest.skip("no /proc/self/task to count the threads in")
    assert result["threads"] == 1


def test_package_keeps_the_users_blas_thread_count(tmp_path):
    result = probe(tmp_path, "2", "package-first")
    assert result["seen"] == ["2"]
    assert result["variable"] == "2"


def test_package_leaves_the_environment_alone_after_numpy(tmp_path):
    result = probe(tmp_path, None, "numpy-first")
    assert result["seen"] == [None]
    assert result["variable"] is None
