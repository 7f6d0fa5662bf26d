"""``qfg verify`` must be able to fail: each fault planted here, in-process and with no file edited,
makes ``verify.run_suites`` report at least one failed check."""

import numpy as np

import qfg.optimize
from qfg import verify


def _failed(names=None):
    return {name: [c.name for c in checks if not c.passed] for name, checks in verify.run_suites(names)}


def test_the_optimizer_axis_with_its_y_component_negated(monkeypatch):
    # the optimizer and the measurement qfg scan takes without a POVM share one kernel; measuring along
    # (n_x, -n_y, n_z) instead of its Bloch axis n must fail the suite that certifies them, and only that one
    original = qfg.optimize.pair_outcomes
    monkeypatch.setattr(qfg.optimize, "pair_outcomes", lambda axes: original(np.asarray(axes) * [1.0, -1.0, 1.0]))
    failed = _failed()
    assert set(failed["optimizer-attainment"]) >= {
        "optimizer reaches QFI over 26 scenarios", "SLD eigenbasis attains QFI over 26 scenarios"}
    assert not any(names for suite, names in failed.items() if suite != "optimizer-attainment")
    monkeypatch.undo()
    assert not any(_failed(["optimizer-attainment"]).values())
