"""The library forms drho in one place, ``qfg.sld.walk_curve``.

A curve's one walk gives its checked states, drho and the matrices at theta +-
h, so a second way to differentiate a curve would evaluate the family's
formula again and could drift from the walk's bits. The rule
``RULES["derivative"]`` of ``ast_guards`` fails each ``src/qfg`` module on a
reference outside the body of ``sld.walk_curve`` to a family's exact
derivative ``.drho_stack`` (a method definition is not a reference) or to the
finite difference's kernels ``_step_thetas`` and ``_central_difference``, as
an attribute, a name or an imported name.
"""

import pytest

from ast_guards import RULES, SRC

DERIVATIVES = RULES["derivative"]


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
    assert DERIVATIVES.violations(source, exempt="walk_curve") == flagged
    walk = ["line 7: _step_thetas", "line 8: _central_difference", "line 8: curve.drho_stack"]
    assert DERIVATIVES.violations(source) == flagged[:2] + walk + flagged[2:]


def test_the_walk_holds_the_derivatives():
    assert DERIVATIVES.violations((SRC / "sld.py").read_text(encoding="utf-8")) != []


@pytest.mark.parametrize("path", DERIVATIVES.modules, ids=lambda p: p.name)
def test_module_forms_drho_only_in_the_walk(path):
    assert DERIVATIVES.check(path) == []
