"""One measurement policy: the outcome cutoff EPS_P and the scale-free SLD-gap rule.

An outcome counts when its probability exceeds EPS_P, in every classical sum
and every attainability verdict. An SLD spectrum is degenerate when its
smallest gap is at or below SLD_GAP times its largest |eigenvalue|, so the
verdict, like the eigenbasis, does not depend on the speed of the curve.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfg import cli, fisher, optimize
from qfg.errors import DegenerateSld, InvalidPovm, NotAPovm
from qfg.fisher import EPS_P, POVM_TOL, Povm, classical_fisher, pure_qdit_fisher
from qfg.linalg import DensityOp, DensityStack, eigh
from qfg.optimize import (
    _degenerate,
    attainability_check,
    degenerate_by_rank,
    maximize_cfi,
    reach_check_pure,
    sld_eigenbasis,
    sld_eigenbasis_povm,
)
from qfg.sld import PureQditCoeffs, assemble_drho, differentiate_curve, sld_solve, sld_solve_stack
from qfg.states import qubit_point, rho_of_kz

EDGE_PROBABILITIES = [1e-16, 1e-13, 1e-12, 1e-11]


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def _pure_case(rng, d, p):
    """Velocity coefficients a and d outcome vectors (rows) whose first has |xi_1|^2 = p."""
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    a[0] = 1j * rng.normal()
    s, c = np.sqrt(p), np.sqrt(1.0 - p)
    rot = np.eye(d, dtype=complex)
    rot[:2, :2] = [[s, -c], [c, s]]
    outer, inner = np.eye(d, dtype=complex), np.eye(d, dtype=complex)
    outer[1:, 1:], inner[1:, 1:] = _unitary(rng, d - 1), _unitary(rng, d - 1)
    # row 0 of outer @ rot @ inner is (s, -c * inner[1, 1:]): its first entry stays exactly s
    return a, outer @ rot @ inner


def _pure_rho_drho(a):
    """rho = e1 e1^dag and drho = dpsi e1^dag + e1 dpsi^dag for dpsi = sum_i a_i e_i."""
    d = len(a)
    e1 = np.eye(d)[:, 0]
    return DensityOp(np.diag(e1)), np.outer(a, e1) + np.outer(e1, a.conj())


def _first_probability(monkeypatch, module, rho, call):
    """The first p = Re Tr[rho m] that ``call`` takes through ``module``'s real-pairing kernel."""
    kernel, seen = module.frobenius_real, []

    def spy(h, a):
        out = kernel(h, a)
        if np.shares_memory(h, rho.stack.matrices):
            seen.append(float(np.ravel(out)[0]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(module, "frobenius_real", spy)
        call()
    return seen[0]


@pytest.mark.parametrize("p", EDGE_PROBABILITIES)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_outcome_cutoff_is_one_probability_rule(monkeypatch, d, p):
    rng = np.random.default_rng(1000 * d + EDGE_PROBABILITIES.index(p))
    for _ in range(5):
        a, xis = _pure_case(rng, d, p)
        excluded = abs(xis[0, 0]) ** 2 <= EPS_P
        assert excluded == (p <= EPS_P)
        rho, drho = _pure_rho_drho(a)
        matrices = [np.outer(xi, xi.conj()) for xi in xis]
        classical, _ = pure_qdit_fisher(a, list(xis))
        assert classical == pytest.approx(classical_fisher(rho, drho, Povm(matrices)), rel=1e-12, abs=0.0)
        assert attainability_check(rho, drho, matrices[0]).vacuous == excluded
        assert reach_check_pure(xis[0], a).boundary == excluded
        # both verdicts read the same bits of p: one kernel, rho as its Hermitian operand
        p_sum = _first_probability(monkeypatch, fisher, rho, lambda: classical_fisher(rho, drho, Povm(matrices)))
        p_check = _first_probability(monkeypatch, optimize, rho, lambda: attainability_check(rho, drho, matrices[0]))
        assert p_sum == p_check


def test_outcome_whose_root_vanishes_is_vacuous():
    # p = 5e-11 > EPS_P, but psd_sqrt drops the eigenvalue 5e-11 <= SQRT_RANK_CUTOFF * 100
    rho, drho = _pure_rho_drho(np.array([0.0, 1.0]))
    assert attainability_check(rho, drho, np.diag([5e-11, 100.0])).vacuous


def test_completeness_is_one_frobenius_rule():
    # max |G - I| = 0.8 POVM_TOL passes an entrywise check; ||G - I||_F = 1.13 POVM_TOL does not
    vectors = list(np.sqrt(1.0 + 0.8 * POVM_TOL) * np.eye(2))
    with pytest.raises(NotAPovm):
        pure_qdit_fisher([0.0, 1.0], vectors)
    with pytest.raises(InvalidPovm):
        Povm([np.outer(xi, xi.conj()) for xi in vectors])


def _qubit_draws(n):
    rng = np.random.default_rng(61)
    for _ in range(n):
        k = rng.uniform(0.05, 0.45)
        z = complex(rng.normal(), rng.normal())
        dk = float(rng.normal()) * 0.3
        v = complex(rng.normal(), rng.normal())
        yield rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, dk, v)


@pytest.mark.parametrize("speed", [1e-12, 1e-9, 1.0, 1e6])
def test_sld_degeneracy_is_speed_invariant(speed):
    for rho, drho in _qubit_draws(50):
        reference = maximize_cfi(rho, drho)
        result = maximize_cfi(rho, speed * drho)
        assert not result.degenerate
        assert np.abs(result.axis - reference.axis).max() <= 1e-12
        assert sld_eigenbasis(sld_solve(rho, speed * drho)[None])[2][0] == result.degenerate


def _pure_qdit_sld(a):
    curve = PureQditCoeffs(a)
    rho = curve.rho_at(0.0)
    drho = differentiate_curve(curve, 0.0)
    return rho, drho, sld_solve(rho, drho)


@pytest.mark.parametrize("speed", [1e-12, 1.0])
def test_pure_qdit_degeneracy_is_speed_invariant(speed):
    # L = 2 drho has the spectrum (-l, 0, l) at d = 3 and (-l, 0, 0, l) at d = 4
    rho, drho, ell = _pure_qdit_sld(tuple(speed * x for x in (0.3j, 1.0, 0.5j)))
    assert not sld_eigenbasis(ell[None])[2][0]
    sld_eigenbasis_povm(rho, drho)
    rho, drho, ell = _pure_qdit_sld(tuple(speed * x for x in (0.3j, 1.0, 0.5j, -0.7)))
    assert sld_eigenbasis(ell[None])[2][0]
    with pytest.raises(DegenerateSld):
        sld_eigenbasis_povm(rho, drho)


@st.composite
def _rank_r_stacks(draw):
    """States of support rank r at d = 1..8, each in its own random frame, and tangents on them.

    A tangent couples support and kernel but puts no weight on kernel x kernel; the rows are
    scaled by 10^e for drawn e in [-150, 150], and the last row's drho is 0.
    """
    d = draw(st.integers(1, 8))
    r = draw(st.integers(1, d))
    exponents = draw(st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rhos, drhos = [], []
    for scale in [10.0**e for e in exponents] + [0.0]:
        u = _unitary(rng, d)
        w = np.zeros(d)
        w[:r] = rng.uniform(0.05, 1.0, r)
        w /= w.sum()
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g[r:, r:] = 0.0
        g = g + g.conj().T
        g[:r, :r] -= np.trace(g).real / r * np.eye(r)
        rho, drho = (u * w) @ u.conj().T, scale * (u @ g @ u.conj().T)
        rhos.append((rho + rho.conj().T) / 2)
        drhos.append((drho + drho.conj().T) / 2)
    return d, r, DensityStack(np.array(rhos)), np.array(drhos)


@settings(max_examples=80, deadline=None)
@given(_rank_r_stacks())
def test_rank_decides_sld_degeneracy_only_where_the_gap_rule_agrees(case):
    # rank r <= (d - 2) / 2 leaves a kernel of z >= (d + 2) / 2 on which the SLD is 0, so its 0 repeats
    # 2 z - d >= 2 times; at d <= 3 and at every larger rank, rho's rank decides nothing
    d, r, rho, drho = case
    flagged = degenerate_by_rank(rho.eigenvalues)
    assert (flagged == (2 * r + 2 <= d)).all()
    assert _degenerate(eigh(sld_solve_stack(rho, drho))[0])[flagged].all()


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_slow_transverse_curve_agrees_across_commands(tmp_path):
    scenario = tmp_path / "slow.json"
    scenario.write_text(json.dumps({
        "curve": {"family": "transverse_curve", "z": "inf",
                  "path": {"type": "linear", "k0": 0.25, "rate": 1e-11}},
        "theta0": 0.0,
    }))
    code, out, err = _run_cli("scan", "--scenario", str(scenario), "--range", "0:0:1")
    assert code == 0, err
    header, row = out.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["cfi"]) > 0.0
    assert values["cfi"] == values["qfi_total"]
    code, out, err = _run_cli("optimize", "--scenario", str(scenario))
    assert code == 0, err
    result = json.loads(out)
    assert result["degenerate"] is False
    assert result["cfi"] == float(values["cfi"])
