"""No library module traces a matrix product: ``linalg.frobenius_inner`` takes every Tr[h a].

For an exactly Hermitian h, Tr[h a] is the Frobenius inner product
sum_ij conj(h_ij) a_ij, which forms no d x d product. This parses each
``src/qfg`` module other than ``verify.py`` with ``ast`` and fails on a trace
of a product, whatever the names: ``np.trace(x @ y)``, ``traces(x @ y)`` or
``(x @ y).trace()``. ``verify.py`` is exempt: its oracles form these products
on purpose, to check the kernels by an independent route.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "verify.py")
TRACES = {"trace", "traces"}


def _is_product(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)


def traced_products(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in TRACES and (
            (node.args and _is_product(node.args[0])) or (isinstance(func, ast.Attribute) and _is_product(func.value))
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_checker_flags_every_traced_product():
    source = (
        "t = np.trace(rho @ x)\n"
        "t = numpy.trace(rho @ x @ y, axis1=1, axis2=2)\n"
        "t = traces(rho @ x)\n"
        "t = (rho @ x).trace()\n"
        "t = np.trace(rho)\n"
        "t = traces(rho)\n"
        "t = ell.trace()\n"
        "t = np.trace(rho * x)\n"
        "t = frobenius_inner(rho, x @ y)\n"
    )
    assert traced_products(source) == [
        "line 1: np.trace(rho @ x)",
        "line 2: numpy.trace(rho @ x @ y, axis1=1, axis2=2)",
        "line 3: traces(rho @ x)",
        "line 4: (rho @ x).trace()",
    ]


def test_verify_holds_the_independent_oracles():
    assert traced_products((SRC / "verify.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_traces_no_product(path):
    assert traced_products(path.read_text(encoding="utf-8")) == []
