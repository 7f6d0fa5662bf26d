"""Batch invariance: every row of a stacked evaluation equals the single-theta call, bit for bit.

``qfg scan`` evaluates thetas in stacked chunks, while the single-theta
functions are the one-row case of the same kernels. These tests compare the
two with ``==``, for every curve family and mode at d = 2..8, the Fisher tensor
of two directions and the attainability kernel included, and compare the CSV of ``qfg scan`` with the rows
the benchmark's traced replay (``bench/tracing.py``) builds from the
single-theta public calls.
"""

import importlib.util
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfg import cli
from qfg import scan as scan_module
from qfg.errors import DegenerateSld
from qfg.fisher import (
    classical_fisher,
    classical_fisher_stack,
    fisher_tensor_general,
    fisher_tensor_stack,
    qfi_split,
    quantum_fisher,
    quantum_fisher_of_sld,
)
from qfg.linalg import PAULI_Y, DensityStack, dagger
from qfg.optimize import (
    attainability_check,
    attainability_stack,
    eigenprojector,
    sld_eigenbasis,
    sld_eigenbasis_cfi,
    sld_eigenbasis_povm,
)
from qfg.scenario import parse_scenario
from qfg.sld import (
    FD,
    GreatCirclePure,
    differentiate_curve,
    sld_solve,
    sld_solve_stack,
    walk_curve,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _cpx(z):
    return [float(z.real), float(z.imag)]


def _matrix_json(m):
    return [[_cpx(complex(x)) for x in row] for row in m]


def _mixed_state(rng, d):
    w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = w @ w.conj().T
    rho = 0.8 * rho / np.trace(rho).real + 0.2 * np.eye(d) / d
    return (rho + rho.conj().T) / 2


def _basis_povm(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return [np.outer(q[:, i], q[:, i].conj()) for i in range(d)]


@st.composite
def scenarios(draw):
    """(scenario JSON, lo, hi): every curve family, inside the domain the program documents."""
    family = draw(st.sampled_from(["great-circle", "sphere", "transverse-z", "transverse-inf", "pure", "table"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = lambda lo, hi: draw(st.floats(lo, hi, allow_nan=False))  # noqa: E731
    d = 2
    if family == "great-circle":
        curve, lo, hi = {"family": "great_circle_pure", "phase": unit(0, 2 * math.pi)}, unit(0.2, 1.0), unit(1.5, 2.9)
    elif family == "sphere":
        z0, v = complex(unit(-0.7, 0.7), unit(-0.7, 0.7)), complex(unit(-1, 1), unit(-1, 1))
        curve = {"family": "sphere_curve", "k": unit(0.05, 0.45),
                 "path": {"type": "linear", "z0": _cpx(z0), "velocity": _cpx(v)}}
        lo, hi = unit(-0.5, 0.0), unit(0.1, 0.5)
    elif family.startswith("transverse"):
        k0, k1 = unit(0.02, 0.2), unit(0.3, 0.48)
        z = _cpx(complex(unit(-1.5, 1.5), unit(-1.5, 1.5))) if family == "transverse-z" else "inf"
        curve = {"family": "transverse_curve", "z": z, "path": {"type": "linear", "k0": k0, "rate": k1 - k0}}
        lo, hi = unit(0.0, 0.3), unit(0.6, 1.0)
    elif family == "pure":
        d = draw(st.integers(2, 8))
        g = rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)
        g *= unit(0.3, 1.0) / np.linalg.norm(g)
        a = [complex(0.0, unit(-0.5, 0.5))] + list(g)
        curve, lo, hi = {"family": "pure_qdit_coeffs", "a": [_cpx(x) for x in a]}, unit(-1, 0), unit(0.1, 1)
    else:
        d = draw(st.integers(2, 8))
        samples = [{"theta": t, "rho": _matrix_json(_mixed_state(rng, d))} for t in (0.0, 1.0)]
        curve, lo, hi = {"family": "table", "samples": samples}, unit(0.01, 0.3), unit(0.6, 0.99)
    scenario = {"curve": curve, "theta0": lo}
    fd = draw(st.booleans())
    if fd:
        scenario["options"] = {"mode": FD}
    if draw(st.booleans()):
        scenario["povm"] = {"elements": [_matrix_json(m) for m in _basis_povm(rng, d)]}
    return scenario, lo, hi


@settings(max_examples=120, deadline=None)
@given(scenarios(), st.integers(1, 40), st.data())
def test_rows_equal_single_theta_calls(case, n, data):
    payload, lo, hi = case
    scenario = parse_scenario(payload)
    curve, mode, h = scenario.curve, scenario.options.mode, scenario.options.fd_step
    thetas = np.linspace(lo, hi, n)
    rho, drho, stepped = walk_curve(curve, thetas, mode, h)
    # the walk's states are those of rho_stack, the walk with no step, bit for bit
    states = curve.rho_stack(thetas)
    assert (states.matrices == rho.matrices).all() and (states.eigenvalues == rho.eigenvalues).all()
    assert (states.eigenvectors == rho.eigenvectors).all()
    ell = sld_solve_stack(rho, drho)
    qfi = quantum_fisher_of_sld(drho, ell)
    sphere, transverse = qfi_split(curve, rho, thetas, stepped, h, qfi)
    cfi_sld = sld_eigenbasis_cfi(rho, drho, ell)  # a qubit's from maximize_cfi_stack, d >= 3 from the eigenbasis
    povm = scenario.povm
    cfi_povm = None if povm is None else classical_fisher_stack(rho, drho, povm.stack[:, None])
    # a second direction at every row: i[G, rho] for a Hermitian G stays in the support of rho
    gen = np.diag(np.arange(rho.dim, dtype=float)) + 0.5
    d2 = 1j * (gen @ rho.matrices - rho.matrices @ gen)
    d2 = (d2 + dagger(d2)) / 2
    tensor = fisher_tensor_stack(rho, sld_solve_stack(rho, np.stack([drho, d2], axis=1)))
    scale = max(1.0, float(np.abs(tensor).max()))
    assert np.allclose(tensor, tensor.swapaxes(1, 2).conj(), rtol=0.0, atol=1e-12 * scale)

    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    for i in rows:
        theta = float(thetas[i])
        single = curve.rho_at(theta)
        assert (single.matrix == rho.matrices[i]).all()
        assert (single.eigenvalues == rho.eigenvalues[i]).all()
        d1 = differentiate_curve(curve, theta, mode, h)
        assert (d1 == drho[i]).all()
        assert (sld_solve(single, d1) == ell[i]).all()
        assert quantum_fisher(single, d1) == qfi[i]
        # the SLD identity Tr[drho L] = Tr[rho L^2], the tensor's real diagonal
        assert abs(qfi[i] - max(tensor[i, 0, 0].real, 0.0)) <= 1e-12 * max(1.0, qfi[i])
        assert fisher_tensor_general(single, d1, d2[i]).value == tensor[i, 0, 1]
        one = np.array([theta])
        split = qfi_split(curve, single.stack, one, walk_curve(curve, one, mode, h)[2], h, np.array([qfi[i]]))
        assert (split[0][0], split[1][0]) == (sphere[i], transverse[i])
        try:
            cfi = classical_fisher(single, d1, sld_eigenbasis_povm(single, d1))
        except DegenerateSld:
            cfi = 0.0
        assert cfi == cfi_sld[i]
        if povm is not None:
            assert classical_fisher(single, d1, povm) == cfi_povm[i]


@settings(max_examples=8, deadline=None)
@given(scenarios(), st.data())
def test_rows_of_a_full_chunk_equal_single_theta_calls(case, data):
    payload, lo, hi = case
    scenario = parse_scenario(payload)
    n = scan_module.CHUNK_ROWS
    thetas = np.linspace(lo, hi, n)
    rows = scan_module.scan_rows(scenario, thetas, scenario.options.mode, scenario.options.fd_step)
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)):
        single = scan_module.scan_rows(scenario, thetas[i : i + 1], scenario.options.mode, scenario.options.fd_step)
        assert (single[0] == rows[i]).all()


def _attainability_rows(d):
    """(rho, drho, outcomes (m, n, d, d)): mixed rows, a pure row and, at d = 2, the great circle.

    Each row's outcomes are its SLD eigenprojectors, which attain, an element
    of probability 1e-13 <= EPS_P, and diag(5e-11, 100, ...), whose root drops
    the pure row's weight; at d = 2 the sigma_y pair follows.
    """
    rng = np.random.default_rng(1200 + d)
    rho = [_mixed_state(rng, d) for _ in range(4)] + [np.diag(np.eye(d)[0]).astype(complex)]
    gen = _mixed_state(rng, d)
    drho = [1j * (gen @ r - r @ gen) for r in rho[:4]]
    a = np.r_[0.0, rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)]
    drho.append(np.outer(a, np.eye(d)[0]) + np.outer(np.eye(d)[0], a.conj()))
    extra = [1e-13 * np.eye(d), np.diag(np.r_[5e-11, np.full(d - 1, 100.0)])]
    if d == 2:
        gc = GreatCirclePure()
        rho.append(gc.rho_matrices(np.array([math.pi / 3]))[0])
        drho.append(differentiate_curve(gc, math.pi / 3))
        extra += [(np.eye(2) + PAULI_Y) / 2, (np.eye(2) - PAULI_Y) / 2]
    rho, drho = DensityStack(np.array(rho)), np.array(drho)
    drho = (drho + dagger(drho)) / 2
    _, v, _ = sld_eigenbasis(sld_solve_stack(rho, drho))
    basis = [eigenprojector(v, i) for i in range(d)]
    outcomes = np.array(basis + [np.broadcast_to(m, v.shape) for m in extra], dtype=complex)
    return rho, drho, outcomes


@pytest.mark.parametrize("shared", [False, True], ids=["per-row", "shared"])
@pytest.mark.parametrize("d", range(2, 9))
def test_attainability_rows_equal_one_outcome_checks(d, shared):
    rho, drho, outcomes = _attainability_rows(d)
    if shared:
        outcomes = outcomes[:, :1]  # row 0's outcomes, one POVM for every row
    kernel = attainability_stack(rho, sld_solve_stack(rho, drho), outcomes)
    assert all(x.shape == (len(outcomes), len(rho)) for x in kernel)
    for j, i in np.ndindex(*kernel[0].shape):
        report = attainability_check(rho[i], drho[i], outcomes[j, 0 if shared else i])
        assert (report.attains, report.c, report.residual, report.vacuous) == tuple(x[j, i] for x in kernel)
    attains, _, _, vacuous = kernel
    assert shared or attains[:d].all()
    assert vacuous[d].all() and vacuous[d + 1, 4] and not vacuous[d + 1, :4].any()
    if d == 2:
        assert not attains[d + 2 :, 5].any()  # the sigma_y pair on the great circle


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


SUBNORMAL_THETA = -2.225073858507e-311


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.integers(1, 30))
# a pure flow whose first row is psi = (1, ~1e-311): the lift of |psi><psi| pivots on its largest component
@example(({"curve": {"family": "pure_qdit_coeffs", "a": [[0.0, 0.0], [0.689, -0.724]]}, "theta0": SUBNORMAL_THETA},
          SUBNORMAL_THETA, 0.5), 3)
def test_scan_csv_equals_traced_replay(case, count):
    payload, lo, hi = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scenario.json")
        Path(path).write_text(json.dumps(payload))
        code, out, err = run_cli("scan", "--scenario", path, f"--range={lo!r}:{hi!r}:{count}")
        assert code == 0, err
        # the grid exactly as the benchmark computes it
        thetas = [lo] if count == 1 else [lo + (hi - lo) * i / (count - 1) for i in range(count)]
        cmd = SimpleNamespace(index=0, thetas=thetas)
        replayed = tracing.replay(tracing.Tracer(enabled=False), cmd, path)
    assert out.splitlines() == [",".join(scan_module.COLUMNS)] + replayed


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_chunked_scan_equals_one_chunk(monkeypatch, chunk):
    argv = ["scan", "--scenario", str(Path(__file__).parent / "fixtures" / "sphere_k025.json"), "--range", "0:1:10"]
    whole = run_cli(*argv)
    monkeypatch.setattr(scan_module, "CHUNK_ROWS", chunk)
    assert run_cli(*argv) == whole
