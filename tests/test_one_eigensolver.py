"""The library has one eigensolver, ``qfg.linalg.eigh``.

Every eigendecomposition goes through it, so every stack, at every d, gets one
LAPACK call and one rule for a non-finite row. The rule
``RULES["eigensolver"]`` of ``ast_guards`` fails each ``src/qfg`` module other
than ``linalg.py`` on a reference to numpy's Hermitian solvers
``eigh``/``eigvalsh``: as an attribute (``np.linalg.eigh``, or through an
alias of ``numpy.linalg``) or as a name imported from ``numpy.linalg``. Other
``numpy.linalg`` routines, such as ``verify``'s ``qr``, stay allowed.

The one way around the eigensolver is ``DensityStack.from_eigenpairs``, which
trusts the eigenpairs it is given. Only two builders of ``states.py`` may call
it, each for states whose eigenpairs are known by construction:
``pure_projector_stack``, the Householder lift of a pure state, and
``chart_states``, the chart point (k, coord) of a mixed qubit, whose
eigenvalues are (k, 1 - k) and whose eigenvectors are the columns of U(coord).
So eigenpairs enter a state only through ``eigh`` or those two builders:
``RULES["lift"]`` checks every other module for a reference to
``from_eigenpairs``, as an attribute, a name or an imported name, and
``states.py`` for one outside them.
"""

import pytest

from ast_guards import RULES, SRC

SOLVERS, LIFT = RULES["eigensolver"], RULES["lift"]


def test_checker_flags_every_route_to_lapack():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg\n"
        "from numpy.linalg import eigvalsh, qr\n"
        "import qfg.linalg\n"
        "from .linalg import eigh\n"
        "w = np.linalg.eigh(m)\n"
        "w = la.eigvalsh(m)\n"
        "w = linalg.eigh(m)\n"
        "q = np.linalg.qr(m)\n"
        "w = eigh(m)\n"
        "w = qfg.linalg.eigh(m)\n"
    )
    assert SOLVERS.violations(source) == [
        "line 4: from numpy.linalg import eigvalsh",
        "line 7: np.linalg.eigh",
        "line 8: la.eigvalsh",
        "line 9: linalg.eigh",
    ]


def test_linalg_holds_the_lapack_call():
    assert SOLVERS.violations((SRC / "linalg.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", SOLVERS.modules, ids=lambda p: p.name)
def test_module_calls_no_other_eigensolver(path):
    assert SOLVERS.check(path) == []


def test_checker_flags_every_reference_to_the_unchecked_eigenpairs():
    source = (
        "from .linalg import DensityStack, from_eigenpairs\n"
        "from qfg import linalg\n"
        "s = DensityStack.from_eigenpairs(m, w, v)\n"
        "make = linalg.DensityStack.from_eigenpairs\n"
        "s = DensityStack(m)\n"
        "def from_eigenpairs(m):\n"
        "    return eigh(m)\n"
    )
    assert LIFT.violations(source) == [
        "line 1: import from_eigenpairs",
        "line 3: DensityStack.from_eigenpairs",
        "line 4: linalg.DensityStack.from_eigenpairs",
    ]


def test_states_holds_the_lift():
    assert LIFT.violations((SRC / "states.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", LIFT.modules, ids=lambda p: p.name)
def test_module_takes_eigenpairs_only_from_the_eigensolver(path):
    assert LIFT.check(path) == []


#: The functions of ``states.py`` that may take eigenpairs without an eigensolve.
BUILDERS = {"pure_projector_stack", "chart_states"}


def test_checker_flags_a_third_builder():
    source = (
        "from .linalg import DensityStack, eigh\n"
        "def pure_projector_stack(amps):\n"
        "    return DensityStack.from_eigenpairs(m, w, v)\n"
        "def chart_states(m, k, coord, chart):\n"
        "    return DensityStack.from_eigenpairs(m, *pairs)\n"
        "def rho_of_kz_stack(k, coord, chart):\n"
        "    return chart_states(m, k, coord, chart)\n"
        "def mixed_state(m):\n"
        "    return DensityStack.from_eigenpairs(m, *eigh(m))\n"
        "class Curve:\n"
        "    def walk(self, m):\n"
        "        make = DensityStack.from_eigenpairs\n"
        "stack = DensityStack.from_eigenpairs(m, w, v)\n"
    )
    callers = LIFT.owners(source)
    assert callers == ["pure_projector_stack", "chart_states", "mixed_state", "Curve", "<module>"]
    assert set(callers) != BUILDERS


def test_states_takes_eigenpairs_only_in_its_two_builders():
    assert set(LIFT.owners((SRC / "states.py").read_text(encoding="utf-8"))) == BUILDERS
