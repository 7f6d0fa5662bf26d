"""Self-certification suites: every acceptance property as a named, runnable check.

Each suite returns a list of Check records; the CLI ``verify`` subcommand
prints one line per check and exits nonzero if any fails. All randomness is
seeded, so suite output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fisher import (
    Povm,
    assemble_drho,
    classical_fisher,
    classical_fisher_stack,
    fisher_tensor,
    fisher_tensor_general,
    pure_qdit_fisher,
    qfi_qubit_closed_form,
    quantum_fisher,
    total_fisher_metric,
    wavefunction_fisher,
    WavefunctionGrid,
)
from .geometry import g_kks, reference_density, round_s3_metric, sphere_tangent_matrix
from .linalg import DensityOp, DensityStack, PAULI_Y, herm_eigen
from .optimize import (
    attainability_check,
    fibonacci_sphere,
    maximize_cfi,
    pair_outcomes,
    projector_pair,
    sld_eigenbasis_povm,
)
from .sld import (
    ANALYTIC,
    FD,
    GreatCirclePure,
    PureQditCoeffs,
    SphereCurve,
    differentiate_curve,
    drho_sphere_pure,
    sld_solve,
)
from .states import PureState, pure_projector, qubit_point, rho_of_kz, s3_tangent, unitary_of_z


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _bound(name: str, worst: float, tol: float, extra: str = "") -> Check:
    detail = f"worst {worst:.3e} vs tolerance {tol:.1e}"
    if extra:
        detail += f" ({extra})"
    return Check(name, worst <= tol, detail)


def _random_point(rng, k_lo=0.01, k_hi=0.5, z_max=5.0):
    k = float(rng.uniform(k_lo, k_hi))
    radius = float(rng.uniform(0.0, z_max))
    angle = float(rng.uniform(0.0, 2 * math.pi))
    z = radius * complex(math.cos(angle), math.sin(angle))
    return k, z


def _random_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def suite_sld_residual() -> list[Check]:
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for _ in range(500):
        k, z = _random_point(rng)
        v = complex(rng.normal(), rng.normal())
        dk = float(rng.normal())
        rho = rho_of_kz(qubit_point(k, z))
        drho = assemble_drho(k, z, dk, v)
        ell = sld_solve(rho, drho)
        resid = np.linalg.norm((rho.matrix @ ell + ell @ rho.matrix) / 2 - drho)
        worst = max(worst, float(resid))
    return [_bound("sld-residual over 500 scenarios", worst, 1e-10)]


def suite_bound_chain() -> list[Check]:
    rng = np.random.default_rng(20240902)
    worst = -math.inf
    for _ in range(500):
        k, z = _random_point(rng, k_lo=0.02)
        v = complex(rng.normal(), rng.normal())
        dk = float(rng.normal()) * 0.4
        rho = rho_of_kz(qubit_point(k, z))
        drho = assemble_drho(k, z, dk, v)
        axis = rng.normal(size=3)
        povm = projector_pair(axis / np.linalg.norm(axis))
        gap = classical_fisher(rho, drho, povm) - quantum_fisher(rho, drho)
        worst = max(worst, gap)
    checks = [_bound("classical <= quantum over 500 POVM draws", worst, 1e-9, "signed gap")]

    worst = -math.inf
    for _ in range(200):
        d = int(rng.integers(2, 5))
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        a[0] = 1j * rng.normal()
        n_out = d + int(rng.integers(0, 3))
        iso = _random_unitary(rng, n_out)[:, :d]
        classical, quantum = pure_qdit_fisher(a, list(iso))
        worst = max(worst, classical - quantum)
    checks.append(_bound("pure d-level classical <= quantum over 200 draws", worst, 1e-9, "signed gap"))
    return checks


def suite_closed_forms() -> list[Check]:
    rng = np.random.default_rng(20240903)
    worst = 0.0
    for _ in range(200):
        k, z = _random_point(rng, k_lo=0.02)
        v = complex(rng.normal(), rng.normal())
        dk = float(rng.normal()) * 0.4
        closed = qfi_qubit_closed_form(k, dk, z, v).total
        general = quantum_fisher(rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, dk, v))
        worst = max(worst, abs(closed - general))
    ref = abs(qfi_qubit_closed_form(0.25, 1.0, 0j, 0j).transverse - 16.0 / 3.0)
    return [
        _bound("closed form vs general solver over 200 points", worst, 1e-9),
        _bound("transverse value 16/3 at k=1/4, dk=1", ref, 1e-12),
    ]


def suite_mixing_suppression() -> list[Check]:
    rng = np.random.default_rng(20240904)
    worst = 0.0
    for _ in range(100):
        k, z = _random_point(rng, k_lo=0.02)
        v = complex(rng.normal(), rng.normal())
        mixed = quantum_fisher(rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, 0.0, v))
        psi = PureState(unitary_of_z(z)[:, 1])
        pure = quantum_fisher(pure_projector(psi), drho_sphere_pure(z, v))
        worst = max(worst, abs(mixed - (1 - 2 * k) ** 2 * pure))
    return [_bound("sphere QFI = (1-2k)^2 x pure QFI over 100 draws", worst, 1e-9)]


def suite_s3_identity() -> list[Check]:
    rng = np.random.default_rng(20240905)
    worst = 0.0
    for _ in range(100):
        k = float(rng.uniform(0.01, 0.49))
        radius = float(rng.uniform(0.1, 5.0))
        angle = float(rng.uniform(0.0, 2 * math.pi))
        z = radius * complex(math.cos(angle), math.sin(angle))
        point = qubit_point(k, z)
        t1 = (float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
        t2 = (float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
        metric = total_fisher_metric(k, z, t1, t2)
        theta = 2.0 * math.atan2(1.0, abs(z))
        phi = math.atan2(z.imag, z.real) % (2 * math.pi)
        pushed = round_s3_metric(
            point.psi_angle,
            theta,
            phi,
            s3_tangent(point, *t1),
            s3_tangent(point, *t2),
        )
        worst = max(worst, abs(metric - pushed))
    return [_bound("total Fisher metric = round S^3 metric over 100 draws", worst, 1e-8)]


def suite_tensor_identities() -> list[Check]:
    rng = np.random.default_rng(20240906)
    worst_oracle = worst_im = worst_re = worst_equi = 0.0
    for _ in range(200):
        k, z = _random_point(rng, k_lo=0.02, k_hi=0.49)
        v1 = complex(rng.normal(), rng.normal())
        v2 = complex(rng.normal(), rng.normal())
        value = fisher_tensor(k, z, v1, v2).value
        rho0 = reference_density(k)
        x1 = sphere_tangent_matrix(k, z, v1)
        x2 = sphere_tangent_matrix(k, z, v2)
        oracle = 4.0 * complex(np.trace(rho0.matrix @ x1 @ x2))
        worst_oracle = max(worst_oracle, abs(value - oracle))
        comm = x1 @ x2 - x2 @ x1
        anti = x1 @ x2 + x2 @ x1
        worst_im = max(
            worst_im, abs(value.imag / 4 - (-0.5j * np.trace(rho0.matrix @ comm)).real)
        )
        worst_re = max(
            worst_re, abs(value.real / 4 - (0.5 * np.trace(rho0.matrix @ anti)).real)
        )
        rho = rho_of_kz(qubit_point(k, z))
        u = unitary_of_z(z)
        d1 = u @ x1 @ u.conj().T  # sphere drho at the rotated point equals U xtilde0 U^dag
        d2 = u @ x2 @ u.conj().T
        w = _random_unitary(rng, 2)
        plain = fisher_tensor_general(rho, d1, d2).value
        rotated = fisher_tensor_general(
            DensityOp(w @ rho.matrix @ w.conj().T),
            w @ d1 @ w.conj().T,
            w @ d2 @ w.conj().T,
        ).value
        worst_equi = max(worst_equi, abs(plain - rotated))
    ref = abs(fisher_tensor(0.25, 0j, 1.0, 1j).value - (-0.5j))
    return [
        _bound("closed form vs matrix oracle over 200 draws", worst_oracle, 1e-10),
        _bound("matched-tangent antisymmetric identity", worst_im, 1e-10),
        _bound("matched-tangent symmetric identity", worst_re, 1e-10),
        _bound("equivariance under unitary rotation", worst_equi, 1e-10),
        _bound("reference value -i/2 at (1/4, 0, 1, i)", ref, 1e-12),
    ]


def suite_gkks_relation() -> list[Check]:
    rng = np.random.default_rng(20240907)
    worst = 0.0
    for _ in range(200):
        k, z = _random_point(rng, k_lo=0.02, k_hi=0.49)
        v1 = complex(rng.normal(), rng.normal())
        v2 = complex(rng.normal(), rng.normal())
        value = fisher_tensor(k, z, v1, v2).value
        rho0 = reference_density(k)
        gk = g_kks(rho0, sphere_tangent_matrix(k, z, v1), sphere_tangent_matrix(k, z, v2))
        worst = max(worst, abs((2 * k - 1) * value.real - 4.0 * gk))
    x = sphere_tangent_matrix(0.25, 0j, 1.0)
    ref = abs(g_kks(reference_density(0.25), x, x) + 0.125)
    return [
        _bound("(k1-k2) Re F = 4 G_KKS over 200 draws", worst, 1e-10),
        _bound("reference value -1/8 at (1/4, 0, 1, 1)", ref, 1e-12),
    ]


def _optimizer_scenarios():
    rng = np.random.default_rng(20240908)
    scenarios = []
    gc = GreatCirclePure()
    for theta in np.linspace(0.3, math.pi - 0.3, 7):
        scenarios.append((gc.rho_at(float(theta)), differentiate_curve(gc, float(theta))))
    for _ in range(7):
        k, z = _random_point(rng, k_lo=0.05, k_hi=0.45, z_max=3.0)
        v = complex(rng.normal(), rng.normal())
        scenarios.append((rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, 0.0, v)))
    for _ in range(6):
        k, z = _random_point(rng, k_lo=0.05, k_hi=0.45, z_max=3.0)
        scenarios.append(
            (rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, float(rng.uniform(0.2, 1.0)), 0j))
        )
    # sphere and mixing directions together: only here does the optimal axis leave w
    for _ in range(6):
        k, z = _random_point(rng, k_lo=0.05, k_hi=0.45, z_max=3.0)
        dk, v = float(rng.uniform(0.2, 1.0)), complex(rng.normal(), rng.normal())
        scenarios.append((rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, dk, v)))
    return scenarios


def suite_optimizer_attainment() -> list[Check]:
    scenarios = _optimizer_scenarios()
    worst_gap = worst_basis = 0.0
    closed = []
    for rho, drho in scenarios:
        qfi = quantum_fisher(rho, drho)
        result = maximize_cfi(rho, drho)
        closed.append(result.value)
        worst_gap = max(worst_gap, abs(result.value - qfi))
        povm = sld_eigenbasis_povm(rho, drho)
        worst_basis = max(worst_basis, abs(classical_fisher(rho, drho, povm) - qfi))
    checks = [
        _bound(f"optimizer reaches QFI over {len(scenarios)} scenarios", worst_gap, 1e-6),
        _bound(f"SLD eigenbasis attains QFI over {len(scenarios)} scenarios", worst_basis, 1e-8),
    ]
    gc = GreatCirclePure()
    worst_dev = 0.0
    for theta in np.linspace(0.05, math.pi - 0.05, 50):
        rho = gc.rho_at(float(theta))
        drho = differentiate_curve(gc, float(theta))
        scenarios.append((rho, drho))
        result = maximize_cfi(rho, drho)
        closed.append(result.value)
        worst_dev = max(worst_dev, math.asin(min(1.0, abs(float(result.axis[1])))))
    checks.append(
        _bound("great-circle optimal axis stays in the fixed plane (rad)", worst_dev, 1e-4)
    )

    # independent of the SLD: every axis of a Fibonacci grid, in one stacked pass
    rhos = DensityStack([rho.matrix for rho, _ in scenarios])
    drhos = np.array([drho for _, drho in scenarios])
    outcomes = pair_outcomes(fibonacci_sphere(1024))[:, :, None]
    best = classical_fisher_stack(rhos, drhos, outcomes).max(axis=0)
    closed = np.array(closed)
    excess = float(np.max((best - closed) / closed))
    checks.append(
        _bound(f"no Fibonacci-grid axis beats the optimizer over {len(scenarios)} scenarios",
               excess, 1e-9, "relative excess")
    )
    return checks


def suite_attainability_soundness() -> list[Check]:
    rng = np.random.default_rng(20240909)
    worst_resid = 0.0
    worst_gap = 0.0
    all_attain = True
    for _ in range(50):
        k, z = _random_point(rng, k_lo=0.05, k_hi=0.45, z_max=3.0)
        v = complex(rng.normal(), rng.normal())
        dk = float(rng.normal()) * 0.3
        rho = rho_of_kz(qubit_point(k, z))
        drho = assemble_drho(k, z, dk, v)
        ell = sld_solve(rho, drho)
        w, vecs = herm_eigen(ell)
        if float(np.min(np.diff(w))) < 1e-10:
            continue
        # gauge phases leave rank-one projectors unchanged
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=rho.dim))
        povm = Povm(
            [
                np.outer(phase * vecs[:, i], (phase * vecs[:, i]).conj())
                for i, phase in enumerate(phases)
            ]
        )
        for m in povm:
            report = attainability_check(rho, drho, m)
            all_attain = all_attain and report.attains
            worst_resid = max(worst_resid, report.residual)
        worst_gap = max(
            worst_gap, abs(classical_fisher(rho, drho, povm) - quantum_fisher(rho, drho))
        )
    checks = [
        Check(
            "SLD eigenprojectors judged attaining",
            all_attain,
            f"worst residual {worst_resid:.3e}",
        ),
        _bound("attaining measurements give classical = quantum", worst_gap, 1e-7),
    ]

    gc = GreatCirclePure()
    rho = gc.rho_at(math.pi / 3)
    drho = differentiate_curve(gc, math.pi / 3)
    pair = Povm([(np.eye(2) + PAULI_Y) / 2, (np.eye(2) - PAULI_Y) / 2])
    reports = [attainability_check(rho, drho, m) for m in pair]
    cfi = classical_fisher(rho, drho, pair)
    qfi = quantum_fisher(rho, drho)
    checks.append(
        Check(
            "sigma_y pair judged non-attaining on the great circle",
            not any(r.attains for r in reports) and cfi < 1e-12 and abs(qfi - 1) < 1e-12,
            f"cfi={cfi:.3e}, qfi={qfi:.6f}",
        )
    )
    return checks


def suite_finite_difference() -> list[Check]:
    curves = [
        ("great circle", GreatCirclePure(phase=0.4), 0.7),
        ("sphere curve", SphereCurve(k=0.3, z0=0.2 + 0.1j, velocity=1.0 - 0.5j), 0.4),
        ("pure d-level flow", PureQditCoeffs(a=(0.2j, 0.5 + 0.1j, -0.3j)), 0.3),
    ]
    steps = np.array([1e-3, 5e-4, 2.5e-4])
    checks = []
    for name, curve, theta in curves:
        exact = differentiate_curve(curve, theta, mode=ANALYTIC)
        errs = np.array(
            [
                float(np.linalg.norm(differentiate_curve(curve, theta, mode=FD, h=float(h)) - exact))
                for h in steps
            ]
        )
        slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
        checks.append(
            Check(
                f"FD convergence order on {name}",
                slope >= 1.9,
                f"log-log slope {slope:.3f}",
            )
        )
    return checks


def suite_wavefunction() -> list[Check]:
    rng = np.random.default_rng(20240911)
    worst_id = 0.0
    worst_const = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 33))
        dx = float(rng.uniform(0.05, 2.0))
        x = np.arange(n) * dx
        p = rng.uniform(0.1, 1.0, size=n)
        p /= p.sum() * dx
        dp = rng.normal(size=n)
        alpha = rng.normal(size=n)
        dalpha = rng.normal(size=n)
        grid = WavefunctionGrid(x=x, p=p, alpha=alpha, dp=dp, dalpha=dalpha)
        classical, quantum = wavefunction_fisher(grid)
        expected_gap = float(np.sum(p * dalpha**2) * dx) - float(np.sum(p * dalpha) * dx) ** 2
        worst_id = max(worst_id, abs(quantum - classical - expected_gap))
        const = WavefunctionGrid(x=x, p=p, alpha=alpha, dp=dp, dalpha=np.full(n, 0.7))
        c2, q2 = wavefunction_fisher(const)
        worst_const = max(worst_const, abs(q2 - c2))
    return [
        _bound("quantum - classical equals the phase-variance term", worst_id, 1e-10),
        _bound("equality when dalpha is constant", worst_const, 1e-10),
    ]


def suite_cli_determinism() -> list[Check]:
    import io
    import json
    import tempfile
    from contextlib import redirect_stdout
    from pathlib import Path

    from . import cli

    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenarios = {
            "transverse.json": {
                "curve": {"family": "transverse_curve", "z": "inf", "path": {"type": "linear", "k0": 0.0, "rate": 1.0}},
                "theta0": 0.25,
            },
            "sphere.json": {
                "curve": {"family": "sphere_curve", "k": 0.25, "path": {"type": "linear", "z0": [0, 0], "velocity": [1, 0]}},
                "theta0": 0.0,
                "povm": {"elements": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
            },
        }
        for name, payload in scenarios.items():
            (tmp / name).write_text(json.dumps(payload))
        commands = [
            ["eval", "--scenario", str(tmp / "transverse.json"), "--quantity", "qfi"],
            ["eval", "--scenario", str(tmp / "transverse.json"), "--quantity", "sld"],
            ["eval", "--scenario", str(tmp / "sphere.json"), "--quantity", "cfi"],
            ["tensor", "--scenario", str(tmp / "sphere.json"), "--v", "1,0", "--v2", "0,1"],
            ["scan", "--scenario", str(tmp / "sphere.json"), "--param", "theta", "--range", "0:1:5"],
            ["optimize", "--scenario", str(tmp / "transverse.json")],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli.main(argv)
                outputs.append((code, buf.getvalue()))
            checks.append(
                Check(
                    f"byte-identical output: {argv[0]} {argv[-1] if argv[0]=='eval' else ''}".strip(),
                    outputs[0] == outputs[1] and outputs[0][0] == 0,
                    f"exit {outputs[0][0]}, {len(outputs[0][1])} bytes",
                )
            )
    return checks


SUITES: dict[str, Callable[[], list[Check]]] = {
    "sld-residual": suite_sld_residual,
    "bound-chain": suite_bound_chain,
    "closed-forms": suite_closed_forms,
    "mixing-suppression": suite_mixing_suppression,
    "s3-identity": suite_s3_identity,
    "tensor-identities": suite_tensor_identities,
    "gkks-relation": suite_gkks_relation,
    "optimizer-attainment": suite_optimizer_attainment,
    "attainability-soundness": suite_attainability_soundness,
    "finite-difference": suite_finite_difference,
    "wavefunction": suite_wavefunction,
    "cli-determinism": suite_cli_determinism,
}


def run_suites(names=None) -> list[tuple[str, list[Check]]]:
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        results.append((name, SUITES[name]()))
    return results
