"""``NonFiniteResult`` is raised in two places only.

A closed form reports a non-finite result through
``errors.finite_closed_form`` and the writers through
``serialize.format_float``; a module that raises it by hand has a second
finiteness policy. The rule ``RULES["non-finite raise"]`` of ``ast_guards``
checks every other ``src/qfg`` module.
"""

import pytest

from ast_guards import RULES

RAISES = RULES["non-finite raise"]


def test_checker_flags_a_raise():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise NonFiniteResult('x')\n"
        "    raise errors.NonFiniteResult\n"
        "error = NonFiniteResult('not raised')\n"
    )
    assert RAISES.violations(source) == ["line 3: raise NonFiniteResult('x')", "line 4: raise errors.NonFiniteResult"]


@pytest.mark.parametrize("path", RAISES.modules, ids=lambda p: p.name)
def test_module_does_not_raise_non_finite_result(path):
    assert RAISES.check(path) == []
