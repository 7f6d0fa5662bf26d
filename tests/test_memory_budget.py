"""Memory gate: the heap one warm 2000-row qubit scan takes, per curve family and mode.

The peak that ``tracemalloc`` traces over one ``qfg scan`` of 2000 rows
(``cli.main`` in this process, its CSV written to a string buffer, as the
benchmark runs it, after one untraced run of the same command) stays under a
budget per family and mode. A 2000-row chunk is a few (2000, 2, 2) complex
stacks of 125 KB each: the states, their eigenvectors, drho, the SLD and the
temporaries of the stage at work. Each budget is about 10% above the peak
measured when it was set, and holds only for the interpreter and numpy it
was measured on: the traced heap also counts Python's own objects and
numpy's internal temporaries, which differ between versions. On a Python
and numpy pair with no measured budgets the test is skipped, saying so; a
pair is added with the peaks measured on it, not with a wider margin. Like
the runtime budgets in ``test_acceptance.py``, a budget may be tightened,
never loosened.
"""

import contextlib
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest

from qfg.cli import main

ROWS = 2000
Z_BASIS = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
CURVES = {
    "sphere": ({"family": "sphere_curve", "k": 0.3,
                "path": {"type": "linear", "z0": [0.4, 0.2], "velocity": [0.7, -0.3]}}, "0:1"),
    "transverse-z": ({"family": "transverse_curve", "z": [0.8, -0.5],
                      "path": {"type": "linear", "k0": 0.1, "rate": 0.3}}, "0:1"),
    "transverse-inf": ({"family": "transverse_curve", "z": "inf",
                        "path": {"type": "linear", "k0": 0.45, "rate": -0.4}}, "0:1"),
    "great-circle": ({"family": "great_circle_pure", "phase": 0.7}, "0.3:2.8"),
}
#: Peak KB per (family, mode), per (Python, numpy) minor version pair. On Python 3.11.7 with numpy 2.4.6 the
#: peaks were 973 (sphere), 863 (both transverse) and 946 / 1084 (great circle, fd).
BUDGETS_KB = {
    ("3.11", "2.4"): {
        ("sphere", "analytic"): 1070, ("sphere", "fd"): 1070,
        ("transverse-z", "analytic"): 950, ("transverse-z", "fd"): 950,
        ("transverse-inf", "analytic"): 950, ("transverse-inf", "fd"): 950,
        ("great-circle", "analytic"): 1040, ("great-circle", "fd"): 1195,
    },
}
ENVIRONMENT = (f"{sys.version_info.major}.{sys.version_info.minor}", ".".join(np.__version__.split(".")[:2]))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("family", CURVES)
def test_warm_qubit_scan_stays_under_its_heap_budget(tmp_path, family, mode):
    if ENVIRONMENT not in BUDGETS_KB:
        pytest.skip("no heap budget measured on Python {} with numpy {}".format(*ENVIRONMENT))
    budget = BUDGETS_KB[ENVIRONMENT][family, mode]
    curve, span = CURVES[family]
    scenario = {"curve": curve, "theta0": 0.5, "options": {"mode": mode}}
    if family == "great-circle":
        scenario["povm"] = {"elements": Z_BASIS}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    argv = ["scan", "--scenario", str(path), f"--range={span}:{ROWS}"]
    text = _run(argv)  # warm: imports, caches and the first allocations of every stage
    assert text.count("\n") == ROWS + 1
    tracemalloc.start()
    try:
        _run(argv)
        peak = tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()
    assert peak <= budget, f"{family} ({mode}): {peak:.0f} KB > {budget} KB"
