"""``NonFiniteResult`` is raised in two places only.

A closed form reports a non-finite result through ``errors.finite_closed_form``
and the writers through ``serialize.format_float``; a module that raises it by
hand has a second finiteness policy. No linter ships with the project, so
this parses each ``src/qfg`` module with ``ast``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfg"
ALLOWED = {"errors.py", "serialize.py"}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in ALLOWED)


def non_finite_raises(source: str) -> list[int]:
    """Lines that raise NonFiniteResult, called or not, by bare or dotted name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
        if name == "NonFiniteResult":
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_a_raise():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise NonFiniteResult('x')\n"
        "    raise errors.NonFiniteResult\n"
        "error = NonFiniteResult('not raised')\n"
    )
    assert non_finite_raises(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_does_not_raise_non_finite_result(path):
    assert non_finite_raises(path.read_text(encoding="utf-8")) == []
