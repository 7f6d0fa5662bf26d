"""The library forms drho in one place, ``qfg.sld.walk_curve``.

A curve's one walk gives its checked states, drho and the matrices at
theta +- h, so a second way to differentiate a curve would evaluate the
family's formula again and could drift from the walk's bits. This parses
each ``src/qfg`` module with ``ast`` and fails on a reference outside the
body of ``sld.walk_curve`` to a family's exact derivative ``.drho_stack``
(a method definition is not a reference) or to the finite difference's
kernels ``_step_thetas`` and ``_central_difference``, as an attribute, a
name or an imported name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfg"
MODULES = sorted(SRC.glob("*.py"))
DERIVATIVES = {"drho_stack", "_step_thetas", "_central_difference"}


def derivative_references(source: str, exempt: str | None = None) -> list[str]:
    """Each reference outside the body of the top-level function ``exempt``, as 'line n: text'."""
    tree = ast.parse(source)
    skip = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == exempt for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in DERIVATIVES) or (
            isinstance(node, ast.Name) and node.id in DERIVATIVES
        ):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[-1] in DERIVATIVES]
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_checker_flags_every_route_to_a_derivative():
    source = (
        "from .sld import _central_difference, walk_curve\n"
        "import qfg.sld._step_thetas\n"
        "class Curve:\n"
        "    def drho_stack(self, thetas, rho):\n"
        "        return rho\n"
        "def walk_curve(curve, thetas, h):\n"
        "    steps = _step_thetas(thetas, h)\n"
        "    return curve.drho_stack(thetas, None), _central_difference(steps, h)\n"
        "d = curve.drho_stack(thetas, rho)\n"
        "f = sld._central_difference\n"
        "s = _step_thetas(thetas, 1e-5)\n"
        "r = walk_curve(curve, thetas, 1e-5)\n"
    )
    flagged = [
        "line 1: import _central_difference",
        "line 2: import qfg.sld._step_thetas",
        "line 9: curve.drho_stack",
        "line 10: sld._central_difference",
        "line 11: _step_thetas",
    ]
    assert derivative_references(source, exempt="walk_curve") == flagged
    walk = ["line 7: _step_thetas", "line 8: _central_difference", "line 8: curve.drho_stack"]
    assert derivative_references(source) == flagged[:2] + walk + flagged[2:]


def test_the_walk_holds_the_derivatives():
    assert derivative_references((SRC / "sld.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_forms_drho_only_in_the_walk(path):
    exempt = "walk_curve" if path.name == "sld.py" else None
    assert derivative_references(path.read_text(encoding="utf-8"), exempt) == []
