"""A row's max or min over its trailing axes is taken along the stack axis, by ``qfg.linalg._reduce_rows``.

numpy reduces a row's few trailing entries with a loop of its own per row,
which on a stack of thousands of 2 x 2 matrices costs several times the
row's own arithmetic. This parses each ``src/qfg`` module with ``ast`` and
fails on a per-row max or min formed another way: a ``max``/``min``/``amax``/
``amin``/``nanmax``/``nanmin`` method or numpy function (through any alias,
or imported from numpy by name), or ``maximum.reduce``/``minimum.reduce``,
given an axis other than 0 or None. A reduction over the whole array (no
axis) or over the leading axis is not per row. Two places are exempt: the
body of ``linalg._reduce_rows``, and ``verify.py``, whose oracles may reduce
their comparisons as they like.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "verify.py")
REDUCTIONS = {"max", "min", "amax", "amin", "nanmax", "nanmin"}
UFUNCS = {"maximum", "minimum"}


def _axis(call: ast.Call, position: int) -> ast.expr | None:
    """The call's axis argument, by keyword or at its positional index, or None if not given."""
    for keyword in call.keywords:
        if keyword.arg == "axis":
            return keyword.value
    return call.args[position] if len(call.args) > position else None


def _per_row(axis: ast.expr | None) -> bool:
    return axis is not None and not (isinstance(axis, ast.Constant) and axis.value in (0, None))


def row_reductions(source: str, exempt: str | None = None) -> list[str]:
    """Each per-row max or min outside the body of the top-level function ``exempt``, as 'line n: text'."""
    tree = ast.parse(source)
    skip = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == exempt for n in ast.walk(f)}
    numpy, imported = set(), set()  # names bound to numpy, and to its reductions or ufuncs
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy":
            imported |= {a.asname or a.name for a in node.names if a.name in REDUCTIONS | UFUNCS}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip or not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            position = 1  # numpy's function form, max(a, axis)
        elif isinstance(func, ast.Attribute) and func.attr == "reduce":
            owner = func.value
            if not ((isinstance(owner, ast.Attribute) and owner.attr in UFUNCS) or
                    (isinstance(owner, ast.Name) and owner.id in imported)):
                continue
            position = 1  # maximum.reduce(a, axis)
        elif isinstance(func, ast.Attribute) and func.attr in REDUCTIONS:
            function_form = isinstance(func.value, ast.Name) and func.value.id in numpy
            position = 1 if function_form else 0  # np.max(a, axis) or a.max(axis)
        else:
            continue
        if _per_row(_axis(node, position)):
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_checker_flags_every_route_to_a_row_reduction():
    source = (
        "import numpy as np\n"
        "from numpy import amax, maximum as mx\n"
        "from .linalg import _reduce_rows\n"
        "s = a.max(axis=-1)\n"
        "s = a.min(axis=(1, 2), initial=1.0)\n"
        "s = a.max(1)\n"
        "s = np.max(a, axis=1)\n"
        "s = np.nanmin(a, -1)\n"
        "s = amax(a, axis=1)\n"
        "s = np.maximum.reduce(a, axis=1)\n"
        "s = mx.reduce(a, 2)\n"
        "s = a.max()\n"
        "s = a.max(axis=0)\n"
        "s = np.max(a)\n"
        "s = np.max(a, axis=None)\n"
        "s = np.maximum.reduce(a)\n"
        "s = max(a, b)\n"
        "s = a.sum(axis=-1)\n"
        "s = _reduce_rows(np.maximum, a, 2)\n"
        "def _reduce_rows(ufunc, a):\n"
        "    return a.max(axis=-1)\n"
    )
    flagged = [
        "line 4: a.max(axis=-1)",
        "line 5: a.min(axis=(1, 2), initial=1.0)",
        "line 6: a.max(1)",
        "line 7: np.max(a, axis=1)",
        "line 8: np.nanmin(a, -1)",
        "line 9: amax(a, axis=1)",
        "line 10: np.maximum.reduce(a, axis=1)",
        "line 11: mx.reduce(a, 2)",
    ]
    assert row_reductions(source, exempt="_reduce_rows") == flagged
    assert row_reductions(source) == [*flagged, "line 21: a.max(axis=-1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reduces_rows_only_along_the_stack_axis(path):
    exempt = "_reduce_rows" if path.name == "linalg.py" else None
    assert row_reductions(path.read_text(encoding="utf-8"), exempt) == []
