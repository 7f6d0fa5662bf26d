"""The library has one eigensolver, ``qfg.linalg.eigh``.

Every eigendecomposition goes through it, so its closed-form 2 x 2 kernel
takes every qubit stack. This parses each ``src/qfg`` module other than
``linalg.py`` with ``ast`` and fails on a reference to numpy's Hermitian
solvers ``eigh``/``eigvalsh``: as an attribute (``np.linalg.eigh``, or
through an alias of ``numpy.linalg``) or as a name imported from
``numpy.linalg``. Other ``numpy.linalg`` routines, such as ``verify``'s
``qr``, stay allowed.

The one way around the eigensolver is ``DensityStack.from_eigenpairs``,
which trusts the eigenpairs it is given. Only two builders of ``states.py``
may call it, each for states whose eigenpairs are known by construction:
``pure_projector_stack``, the Householder lift of a pure state, and
``chart_states``, the chart point (k, coord) of a mixed qubit, whose
eigenvalues are (k, 1 - k) and whose eigenvectors are the columns of U(coord).
So eigenpairs enter a state only through ``eigh`` or those two builders:
every other module is checked for a reference to ``from_eigenpairs``, as an
attribute or an imported name, and ``states.py`` for one outside them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
SOLVERS = {"eigh", "eigvalsh"}


def solver_references(source: str) -> list[str]:
    tree = ast.parse(source)
    numpy, linalg = set(), set()  # names bound to the numpy and numpy.linalg modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy |= {a.asname or a.name for a in node.names if a.name == "numpy"}
            linalg |= {a.asname for a in node.names if a.name == "numpy.linalg" and a.asname}
            numpy |= {a.name.split(".")[0] for a in node.names if a.name == "numpy.linalg" and not a.asname}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy":
            linalg |= {a.asname or a.name for a in node.names if a.name == "linalg"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SOLVERS:
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in linalg) or (
                isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name) and owner.value.id in numpy
            ):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy.linalg":
            found += [(node.lineno, f"from numpy.linalg import {a.name}") for a in node.names if a.name in SOLVERS]
    return [f"line {line}: {text}" for line, text in sorted(found)]


LIFT = "from_eigenpairs"


def lift_references(source: str) -> list[str]:
    """Each reference to ``from_eigenpairs``, as 'line n: text'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == LIFT:
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[-1] == LIFT]
    return [f"line {line}: {text}" for line, text in sorted(found)]


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
    assert solver_references(source) == [
        "line 4: from numpy.linalg import eigvalsh",
        "line 7: np.linalg.eigh",
        "line 8: la.eigvalsh",
        "line 9: linalg.eigh",
    ]


def test_linalg_holds_the_lapack_call():
    assert solver_references((SRC / "linalg.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_calls_no_other_eigensolver(path):
    assert solver_references(path.read_text(encoding="utf-8")) == []


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
    assert lift_references(source) == [
        "line 1: import from_eigenpairs",
        "line 3: DensityStack.from_eigenpairs",
        "line 4: linalg.DensityStack.from_eigenpairs",
    ]


def test_states_holds_the_lift():
    assert lift_references((SRC / "states.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "states.py"), ids=lambda p: p.name)
def test_module_takes_eigenpairs_only_from_the_eigensolver(path):
    assert lift_references(path.read_text(encoding="utf-8")) == []


#: The functions of ``states.py`` that may take eigenpairs without an eigensolve.
BUILDERS = {"pure_projector_stack", "chart_states"}


def lift_callers(source: str) -> list[str]:
    """The top-level functions and classes of a module that reference ``from_eigenpairs``; "<module>" for other code."""
    callers = []
    for node in ast.parse(source).body:
        if lift_references(ast.unparse(node)):
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            callers.append(node.name if defines else "<module>")
    return callers


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
    callers = lift_callers(source)
    assert callers == ["pure_projector_stack", "chart_states", "mixed_state", "Curve", "<module>"]
    assert set(callers) != BUILDERS


def test_states_takes_eigenpairs_only_in_its_two_builders():
    assert set(lift_callers((SRC / "states.py").read_text(encoding="utf-8"))) == BUILDERS
