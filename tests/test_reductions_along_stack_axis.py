"""A row's max or min over its trailing axes is taken along the stack axis, by ``qfg.linalg._reduce_rows``.

numpy reduces a row's few trailing entries with a loop of its own per row,
which on a stack of thousands of 2 x 2 matrices costs several times the row's
own arithmetic. The rule ``RULES["row reduction"]`` of ``ast_guards`` fails
each ``src/qfg`` module on a per-row max or min formed another way: a
``max``/``min``/``amax``/ ``amin``/``nanmax``/``nanmin`` method or numpy
function (through any alias, or imported from numpy by name), or
``maximum.reduce``/``minimum.reduce``, given an axis other than 0 or None. A
reduction over the whole array (no axis) or over the leading axis is not per
row. Two places are exempt: the body of ``linalg._reduce_rows``, and
``verify.py``, whose oracles may reduce their comparisons as they like.
"""

import pytest

from ast_guards import RULES

REDUCTIONS = RULES["row reduction"]


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
    assert REDUCTIONS.violations(source, exempt="_reduce_rows") == flagged
    assert REDUCTIONS.violations(source) == [*flagged, "line 21: a.max(axis=-1)"]


@pytest.mark.parametrize("path", REDUCTIONS.modules, ids=lambda p: p.name)
def test_module_reduces_rows_only_along_the_stack_axis(path):
    assert REDUCTIONS.check(path) == []
