"""No library module traces a matrix product, and none takes a real pairing from the complex kernel.

For an exactly Hermitian h, Tr[h a] is the Frobenius inner product sum_ij
conj(h_ij) a_ij, which forms no d x d product: ``linalg.frobenius_inner``
takes it as a complex number (the Fisher tensor, whose imaginary part is the
KKS form), and ``linalg.frobenius_real`` takes its real part alone, one float
``vecdot`` at half the cost (p, dp, the QFI Tr[drho L], norms, Bloch vectors).
The rules ``RULES["traced product"]`` and ``RULES["complex real part"]`` of
``ast_guards`` fail each ``src/qfg`` module other than ``verify.py`` on a
trace of a product, whatever the names: ``np.trace(x @ y)``, ``traces(x @ y)``
or ``(x @ y).trace()``; and on the real part of a ``frobenius_inner`` call,
``frobenius_inner(h, a).real`` or ``np.real(frobenius_inner(h, a))``, which is
``frobenius_real(h, a)``. ``verify.py`` is exempt: its oracles form these
products on purpose, to check the kernels by an independent route.
"""

import pytest

from ast_guards import RULES, SRC

TRACED, REAL_PARTS = RULES["traced product"], RULES["complex real part"]


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
    assert TRACED.violations(source) == [
        "line 1: np.trace(rho @ x)",
        "line 2: numpy.trace(rho @ x @ y, axis1=1, axis2=2)",
        "line 3: traces(rho @ x)",
        "line 4: (rho @ x).trace()",
    ]


def test_verify_holds_the_independent_oracles():
    assert TRACED.violations((SRC / "verify.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", TRACED.modules, ids=lambda p: p.name)
def test_module_traces_no_product(path):
    assert TRACED.check(path) == []


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
    assert REAL_PARTS.violations(source) == [
        "line 1: frobenius_inner(rho, m).real",
        "line 2: linalg.frobenius_inner(rho, m).real",
        "line 3: np.real(frobenius_inner(rho, m))",
    ]


def test_a_planted_real_part_fails_the_module_rule():
    source = (SRC / "fisher.py").read_text(encoding="utf-8")
    planted = source.replace("frobenius_real(rho.matrices, m)", "frobenius_inner(rho.matrices, m).real")
    assert planted != source
    assert REAL_PARTS.violations(source) == []
    assert len(REAL_PARTS.violations(planted)) == 1


@pytest.mark.parametrize("path", REAL_PARTS.modules, ids=lambda p: p.name)
def test_module_takes_no_real_part_of_the_complex_kernel(path):
    assert REAL_PARTS.check(path) == []
