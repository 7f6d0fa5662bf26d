"""``qfg verify`` must be able to fail: each fault planted here, in-process and with no file edited,
makes ``verify.run_suites`` report at least one failed check."""

import numpy as np

import qfg.fisher
import qfg.geometry
import qfg.optimize
import qfg.sld
from qfg import verify


def _failed(names=None):
    return {name: [c.name for c in checks if not c.passed] for name, checks in verify.run_suites(names)}


def test_the_optimizer_axis_with_its_y_component_negated(monkeypatch):
    # the optimizer and the measurement qfg scan takes without a POVM share one kernel; measuring along
    # (n_x, -n_y, n_z) instead of its Bloch axis n must fail the suite that certifies it, and only that one.
    # The SLD eigenbasis check measures eigenprojectors of an eigensolve, so it stays an independent oracle
    original = qfg.optimize.pair_outcomes
    monkeypatch.setattr(qfg.optimize, "pair_outcomes", lambda axes: original(np.asarray(axes) * [1.0, -1.0, 1.0]))
    failed = _failed()
    assert "optimizer reaches QFI over 26 scenarios" in failed["optimizer-attainment"]
    assert "SLD eigenbasis attains QFI over 26 scenarios" not in failed["optimizer-attainment"]
    assert not any(names for suite, names in failed.items() if suite != "optimizer-attainment")
    monkeypatch.undo()
    assert not any(_failed(["optimizer-attainment"]).values())


def test_the_qubit_change_of_basis_transposed(monkeypatch):
    # a 2 x 2 congruence transposed is its complex conjugate, still Hermitian, so the SLD stays Hermitian
    # with the wrong phases; the residual of drho = (rho L + L rho) / 2 must catch it
    original = qfg.sld.congruence

    def transposed(v, h):
        c = original(v, h)
        return c.swapaxes(-1, -2) if c.shape[-1] == 2 else c

    monkeypatch.setattr(qfg.sld, "congruence", transposed)
    failed = _failed()
    assert "sld-residual over 500 scenarios" in failed["sld-residual"]
    monkeypatch.undo()
    assert not any(_failed(["sld-residual"]).values())


def test_the_qfi_paired_with_the_transposed_sld(monkeypatch):
    # Tr[drho L^T] is Tr[drho L] with the phases of L's off-diagonal entries flipped: still real, but not the
    # QFI unless drho and L are real. The SLD identity Tr[drho L] = Tr[rho L^2] must catch it
    original = verify.quantum_fisher_of_sld
    monkeypatch.setattr(verify, "quantum_fisher_of_sld", lambda drho, ell: original(drho, ell.swapaxes(-1, -2)))
    failed = _failed()
    assert any(failed.values())
    assert "SLD identity Tr[drho L] = Tr[rho L^2]" in failed["sld-residual"]
    monkeypatch.undo()
    assert not any(_failed(["sld-residual"]).values())


def test_the_fisher_tensor_kernel_conjugated(monkeypatch):
    # F and its conjugate share their real part, and a unitary rotation conjugates neither, so equivariance
    # cannot tell them apart; the kernel against the closed form must
    original = qfg.fisher.fisher_tensor_stack
    for module in (qfg.fisher, qfg.geometry, verify):
        monkeypatch.setattr(module, "fisher_tensor_stack", lambda rho, ell: original(rho, ell).conj())
    assert _failed(["tensor-identities"])["tensor-identities"] == ["Fisher-tensor kernel vs closed form over 200 draws"]
    monkeypatch.undo()
    assert not any(_failed(["tensor-identities"]).values())
