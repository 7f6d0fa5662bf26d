"""The library has one matrix product, ``qfg.linalg.matmul``.

Every product goes through it, so its 2 x 2 entry formulas take every qubit
stack instead of one BLAS call per matrix. A Hermitian change of basis
v^dag h v goes through ``linalg.congruence``, which forms a qubit row's three
independent entries by entry formulas with a real factor in every product
and calls ``matmul`` at d >= 3, so it forms no matrix product of its own.
This parses each ``src/qfg`` module with ``ast`` and fails on a product
formed another way: the ``@`` operator (or ``@=``), or numpy's ``matmul`` or
``einsum``, as an attribute of numpy or ``numpy.linalg`` (through any alias)
or as a name imported from them. Two places are exempt: the body of
``linalg.matmul``, which holds the ``np.matmul`` call for d >= 3, and
``verify.py``, whose oracles form products on purpose, to check the kernels
by an independent route.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "verify.py")
PRODUCTS = {"matmul", "einsum"}
NUMPY_MODULES = {"numpy", "numpy.linalg"}


def products(source: str, exempt: str | None = None) -> list[str]:
    """Each product formed outside the body of the top-level function ``exempt``, as 'line n: text'."""
    tree = ast.parse(source)
    skip = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == exempt for n in ast.walk(f)}
    numpy = set()  # names bound to the numpy or numpy.linalg modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy |= {a.asname or a.name.split(".")[0] for a in node.names if a.name in NUMPY_MODULES}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy":
            numpy |= {a.asname or a.name for a in node.names if a.name == "linalg"}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in numpy) or (
                isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name) and owner.value.id in numpy
            ):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in NUMPY_MODULES:
            found += [(node.lineno, f"from {node.module} import {a.name}") for a in node.names if a.name in PRODUCTS]
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_checker_flags_every_route_to_a_product():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import einsum, linalg, trace\n"
        "from .linalg import matmul\n"
        "c = a @ b\n"
        "c @= b\n"
        "c = np.matmul(a, b)\n"
        "c = np.einsum('ij,jk->ik', a, b)\n"
        "c = la.matmul(a, b)\n"
        "c = np.linalg.matmul(a, b)\n"
        "c = linalg.matmul(a, b)\n"
        "c = matmul(a, b)\n"
        "c = qfg.linalg.matmul(a, b)\n"
        "c = a * b\n"
        "def matmul(a, b):\n"
        "    return np.matmul(a, b) @ b\n"
    )
    flagged = [
        "line 3: from numpy import einsum",
        "line 5: a @ b",
        "line 6: c @= b",
        "line 7: np.matmul",
        "line 8: np.einsum",
        "line 9: la.matmul",
        "line 10: np.linalg.matmul",
        "line 11: linalg.matmul",
    ]
    assert products(source, exempt="matmul") == flagged
    assert products(source) == [*flagged, "line 16: np.matmul", "line 16: np.matmul(a, b) @ b"]


def test_the_kernel_holds_the_numpy_call():
    assert products((SRC / "linalg.py").read_text(encoding="utf-8")) != []


def test_verify_holds_the_independent_oracles():
    assert products((SRC / "verify.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_forms_no_other_product(path):
    exempt = "matmul" if path.name == "linalg.py" else None
    assert products(path.read_text(encoding="utf-8"), exempt) == []
