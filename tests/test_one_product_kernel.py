"""The library has one matrix product, ``qfg.linalg.matmul``.

Every product goes through it, so its 2 x 2 entry formulas take every qubit
stack instead of one BLAS call per matrix. A Hermitian change of basis v^dag h
v goes through ``linalg.congruence``, which forms a qubit row's three
independent entries by entry formulas with a real factor in every product and
calls ``matmul`` at d >= 3, so it forms no matrix product of its own. The rule
``RULES["product"]`` of ``ast_guards`` fails each ``src/qfg`` module on a
product formed another way: the ``@`` operator (or ``@=``), or numpy's
``matmul`` or ``einsum``, as an attribute of numpy or ``numpy.linalg``
(through any alias) or as a name imported from them. Two places are exempt:
the body of ``linalg.matmul``, which holds the ``np.matmul`` call for d >= 3,
and ``verify.py``, whose oracles form products on purpose, to check the
kernels by an independent route.
"""

import pytest

from ast_guards import RULES, SRC

PRODUCTS = RULES["product"]


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
    assert PRODUCTS.violations(source, exempt="matmul") == flagged
    assert PRODUCTS.violations(source) == [*flagged, "line 16: np.matmul", "line 16: np.matmul(a, b) @ b"]


def test_the_kernel_holds_the_numpy_call():
    assert PRODUCTS.violations((SRC / "linalg.py").read_text(encoding="utf-8")) != []


def test_verify_holds_the_independent_oracles():
    assert PRODUCTS.violations((SRC / "verify.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", PRODUCTS.modules, ids=lambda p: p.name)
def test_module_forms_no_other_product(path):
    assert PRODUCTS.check(path) == []
