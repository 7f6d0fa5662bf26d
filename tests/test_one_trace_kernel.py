"""No library module traces a matrix product, and none takes a real pairing from the complex kernel.

For an exactly Hermitian h, Tr[h a] is the Frobenius inner product
sum_ij conj(h_ij) a_ij, which forms no d x d product: ``linalg.frobenius_inner``
takes it as a complex number (the Fisher tensor, whose imaginary part is the
KKS form), and ``linalg.frobenius_real`` takes its real part alone, one float
``vecdot`` at half the cost (p, dp, the QFI Tr[drho L], norms, Bloch vectors).
This parses each ``src/qfg`` module other than ``verify.py`` with ``ast`` and
fails on a trace of a product, whatever the names: ``np.trace(x @ y)``,
``traces(x @ y)`` or ``(x @ y).trace()``; and on the real part of a
``frobenius_inner`` call, ``frobenius_inner(h, a).real`` or
``np.real(frobenius_inner(h, a))``, which is ``frobenius_real(h, a)``.
``verify.py`` is exempt: its oracles form these products on purpose, to
check the kernels by an independent route.
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


def _calls(node, name: str) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return func is not None and (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name


def real_parts_of_complex_pairings(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        attribute = isinstance(node, ast.Attribute) and node.attr == "real" and _calls(node.value, "frobenius_inner")
        wrapped = _calls(node, "real") and node.args and _calls(node.args[0], "frobenius_inner")
        if attribute or wrapped:
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


def test_checker_flags_every_real_part_of_the_complex_kernel():
    source = (
        "p = frobenius_inner(rho, m).real\n"
        "p = linalg.frobenius_inner(rho, m).real\n"
        "p = np.real(frobenius_inner(rho, m))\n"
        "p = frobenius_real(rho, m)\n"
        "c = frobenius_inner(b, a)\n"
        "r = c.real\n"
        "t = fisher_tensor_stack(rho, ell)[:, 0, 0].real\n"
        "q = np.real(frobenius_real(rho, m))\n"
    )
    assert real_parts_of_complex_pairings(source) == [
        "line 1: frobenius_inner(rho, m).real",
        "line 2: linalg.frobenius_inner(rho, m).real",
        "line 3: np.real(frobenius_inner(rho, m))",
    ]


def test_a_planted_real_part_fails_the_module_rule():
    source = (SRC / "fisher.py").read_text(encoding="utf-8")
    planted = source.replace("frobenius_real(rho.matrices, m)", "frobenius_inner(rho.matrices, m).real")
    assert planted != source
    assert real_parts_of_complex_pairings(source) == []
    assert len(real_parts_of_complex_pairings(planted)) == 1


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_takes_no_real_part_of_the_complex_kernel(path):
    assert real_parts_of_complex_pairings(path.read_text(encoding="utf-8")) == []
