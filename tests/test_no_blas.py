"""The package makes no BLAS call.

After a BLAS routine returns, OpenBLAS keeps its worker threads spinning
for a while, so one matrix product per amasaki15 call was enough to make
a one-thread run of the quick-start demo use 1.5 times its wall time in
CPU time. This test walks
the syntax tree of every module of the package and fails on a ``@``
operator, on a call of a NumPy routine that goes to BLAS (``dot``,
``vdot``, ``matmul``, ``inner``, ``tensordot``, ``einsum``) and on any
use of ``linalg``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "timeaware_cpdp"
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
