"""Self-certification suites: every acceptance property as a named, runnable check.

Each suite returns a list of Check records; the CLI ``verify`` subcommand
prints one line per check and exits nonzero if any fails. All randomness is
seeded, so suite output is deterministic. The qubit suites draw their
scenarios one at a time, in a fixed order, and evaluate all of them at once
on the stacked kernels (``rho_of_kz_stack``, ``assemble_drho_stack``,
``sld_solve_stack``, ``fisher_tensor_stack``, ``classical_fisher_stack``,
``attainability_stack``); ``tests/test_batch.py`` pins those kernels to the
one-row public calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fisher import (
    Povm,
    classical_fisher,
    classical_fisher_stack,
    fisher_tensor,
    fisher_tensor_stack,
    pure_qdit_fisher,
    qfi_qubit_closed_form,
    quantum_fisher,
    quantum_fisher_of_sld,
    total_fisher_metric,
    wavefunction_fisher,
    WavefunctionGrid,
)
from .geometry import g_kks, reference_density, round_s3_metric, sphere_tangent_matrix
from .linalg import PAULI_Y, DensityStack, dagger, frobenius_norms, rank_one_projectors, traces
from .optimize import (
    attainability_check,
    attainability_stack,
    eigenprojector,
    fibonacci_sphere,
    maximize_cfi_stack,
    pair_outcomes,
    sld_eigenbasis,
)
from .sld import (
    ANALYTIC,
    DEFAULT_FD_STEP,
    FD,
    GreatCirclePure,
    PureQditCoeffs,
    SphereCurve,
    assemble_drho_stack,
    differentiate_curve,
    sld_solve_stack,
    walk_curve,
)
from .states import Chart, pure_projector_stack, qubit_point, rho_of_kz_stack, s3_tangent, unitary_of_z


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


def _columns(draws) -> list[np.ndarray]:
    """Draws of one tuple each, made in order, as one array per drawn quantity."""
    return [np.array(column) for column in zip(*draws)]


def _qubit_stacks(k, z, dk, v) -> tuple[DensityStack, np.ndarray]:
    """rho and drho of the tangents (dk, v) at the north-chart points (k, z)."""
    return rho_of_kz_stack(k, z, Chart.NORTH), assemble_drho_stack(k, z, dk, v)


def _qfi(rho: DensityStack, drho: np.ndarray) -> np.ndarray:
    return quantum_fisher_of_sld(drho, sld_solve_stack(rho, drho))


def _sld_identity_defect(m: np.ndarray, drho: np.ndarray, ell: np.ndarray) -> float:
    """max |QFI - Tr[rho L^2]| / max(1, QFI) over the rows, the QFI paired as Tr[drho L] and rho L^2 formed here."""
    qfi = quantum_fisher_of_sld(drho, ell)
    squared = np.maximum(np.trace(m @ ell @ ell, axis1=1, axis2=2).real, 0.0)
    return float((np.abs(qfi - squared) / np.maximum(1.0, qfi)).max())


def suite_sld_residual() -> list[Check]:
    rng = np.random.default_rng(20240901)
    k, z, v, dk = _columns((*_random_point(rng), complex(rng.normal(), rng.normal()), rng.normal())
                           for _ in range(500))
    rho, drho = _qubit_stacks(k, z, dk, v)
    ell = sld_solve_stack(rho, drho)
    m = rho.matrices
    worst = float(frobenius_norms((m @ ell + ell @ m) / 2 - drho).max())
    checks = [_bound("sld-residual over 500 scenarios", worst, 1e-10)]
    identity = _sld_identity_defect(m, drho, ell)

    worst = 0.0
    for d in range(2, 9):  # one stack of pure flows per d, rho's eigenpairs from the Householder lift
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        a[0] = 1j * rng.normal()
        curve, thetas = PureQditCoeffs(a=tuple(a)), rng.uniform(-math.pi, math.pi, size=50)
        rho, drho, _ = walk_curve(curve, thetas, ANALYTIC, DEFAULT_FD_STEP)
        ell, m = sld_solve_stack(rho, drho), rho.matrices
        worst = max(worst, float(frobenius_norms((m @ ell + ell @ m) / 2 - drho).max()))
        identity = max(identity, _sld_identity_defect(m, drho, ell))
    checks.append(_bound("pure-flow sld-residual at d = 2..8 over 350 thetas", worst, 1e-10))
    # the QFI is read as Tr[drho L]; the SLD equation makes it Tr[rho L^2], the Fisher tensor's real diagonal
    checks.append(_bound("SLD identity Tr[drho L] = Tr[rho L^2]", identity, 1e-12,
                         "relative to max(1, QFI), 500 scenarios and 350 pure-flow thetas"))
    return checks


def suite_bound_chain() -> list[Check]:
    rng = np.random.default_rng(20240902)

    def draw():
        k, z = _random_point(rng, k_lo=0.02)
        v, dk, axis = complex(rng.normal(), rng.normal()), rng.normal() * 0.4, rng.normal(size=3)
        return k, z, v, dk, axis / np.linalg.norm(axis)

    k, z, v, dk, axes = _columns(draw() for _ in range(500))
    rho, drho = _qubit_stacks(k, z, dk, v)
    worst = float((classical_fisher_stack(rho, drho, pair_outcomes(axes)) - _qfi(rho, drho)).max())
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
    k, z, v, dk = _columns((*_random_point(rng, k_lo=0.02), complex(rng.normal(), rng.normal()), rng.normal() * 0.4)
                           for _ in range(200))
    closed = np.array([qfi_qubit_closed_form(*point).total for point in zip(k, dk, z, v)])
    worst = float(np.abs(closed - _qfi(*_qubit_stacks(k, z, dk, v))).max())
    ref = abs(qfi_qubit_closed_form(0.25, 1.0, 0j, 0j).transverse - 16.0 / 3.0)
    return [
        _bound("closed form vs general solver over 200 points", worst, 1e-9),
        _bound("transverse value 16/3 at k=1/4, dk=1", ref, 1e-12),
    ]


def suite_mixing_suppression() -> list[Check]:
    rng = np.random.default_rng(20240904)
    k, z, v = _columns((*_random_point(rng, k_lo=0.02), complex(rng.normal(), rng.normal())) for _ in range(100))
    mixed = _qfi(*_qubit_stacks(k, z, 0.0, v))
    psi = pure_projector_stack(np.array([unitary_of_z(c)[:, 1] for c in z]))
    pure = _qfi(psi, assemble_drho_stack(0.0, z, 0.0, v))  # the pure family is the k -> 0 limit
    worst = float(np.abs(mixed - (1 - 2 * k) ** 2 * pure).max())
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

    def draw():
        k, z = _random_point(rng, k_lo=0.02, k_hi=0.49)
        v1, v2 = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        return k, z, v1, v2, _random_unitary(rng, 2)

    k, z, v1, v2, w = _columns(draw() for _ in range(200))
    value = np.array([fisher_tensor(*point).value for point in zip(k, z, v1, v2)])
    x1 = np.array([sphere_tangent_matrix(*point) for point in zip(k, z, v1)])
    x2 = np.array([sphere_tangent_matrix(*point) for point in zip(k, z, v2)])
    rho0 = np.stack([k, 1.0 - k], axis=1)[:, None] * np.eye(2)  # reference_density(k) = diag(k, 1-k)
    worst_oracle = float(np.abs(value - 4.0 * traces(rho0 @ x1 @ x2)).max())
    worst_im = float(np.abs(value.imag / 4 - (-0.5j * traces(rho0 @ (x1 @ x2 - x2 @ x1))).real).max())
    worst_re = float(np.abs(value.real / 4 - (0.5 * traces(rho0 @ (x1 @ x2 + x2 @ x1))).real).max())

    def tensor(rho, drho):
        drho = (drho + dagger(drho)) / 2
        return fisher_tensor_stack(rho, sld_solve_stack(rho, drho))[:, 0, 1]

    rho = rho_of_kz_stack(k, z, Chart.NORTH)
    u = np.array([unitary_of_z(c) for c in z])[:, None]
    d = u @ np.stack([x1, x2], axis=1) @ dagger(u)  # sphere drho at the rotated point equals U xtilde0 U^dag
    rotated = DensityStack(w @ rho.matrices @ dagger(w))
    w = w[:, None]
    kernel = tensor(rho, d)
    worst_kernel = float(np.abs(kernel - value).max())
    worst_equi = float(np.abs(kernel - tensor(rotated, w @ d @ dagger(w))).max())
    ref = abs(fisher_tensor(0.25, 0j, 1.0, 1j).value - (-0.5j))
    return [
        _bound("closed form vs matrix oracle over 200 draws", worst_oracle, 1e-10),
        _bound("matched-tangent antisymmetric identity", worst_im, 1e-10),
        _bound("matched-tangent symmetric identity", worst_re, 1e-10),
        _bound("Fisher-tensor kernel vs closed form over 200 draws", worst_kernel, 1e-10),
        _bound("equivariance under unitary rotation", worst_equi, 1e-10),
        _bound("reference value -i/2 at (1/4, 0, 1, i)", ref, 1e-12),
    ]


def suite_gkks_relation() -> list[Check]:
    rng = np.random.default_rng(20240907)
    k, z, v1, v2 = _columns((*_random_point(rng, k_lo=0.02, k_hi=0.49), complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal())) for _ in range(200))
    rho0 = DensityStack(np.stack([k, 1.0 - k], axis=1)[:, None] * np.eye(2))  # reference_density(k) = diag(k, 1-k)
    worst = 0.0
    for i in range(len(k)):
        x1, x2 = (sphere_tangent_matrix(k[i], z[i], v) for v in (v1[i], v2[i]))
        value = fisher_tensor(k[i], z[i], v1[i], v2[i]).value
        worst = max(worst, abs((2 * k[i] - 1) * value.real - 4.0 * g_kks(rho0[i], x1, x2)))
    x = sphere_tangent_matrix(0.25, 0j, 1.0)
    ref = abs(g_kks(reference_density(0.25), x, x) + 0.125)
    return [
        _bound("(k1-k2) Re F = 4 G_KKS over 200 draws", worst, 1e-10),
        _bound("reference value -1/8 at (1/4, 0, 1, 1)", ref, 1e-12),
    ]


def _optimizer_scenarios() -> tuple[DensityStack, np.ndarray]:
    """Great-circle points, then qubit draws on the sphere, transverse, and both at once."""
    rng = np.random.default_rng(20240908)

    def draw(dk_drawn: bool, v_drawn: bool):
        k, z = _random_point(rng, k_lo=0.05, k_hi=0.45, z_max=3.0)
        dk = rng.uniform(0.2, 1.0) if dk_drawn else 0.0
        return k, z, dk, complex(rng.normal(), rng.normal()) if v_drawn else 0j

    # sphere and mixing directions together (the last 6): only there does the optimal axis leave w
    draws = [draw(False, True) for _ in range(7)] + [draw(True, False) for _ in range(6)]
    rho, drho = _qubit_stacks(*_columns(draws + [draw(True, True) for _ in range(6)]))
    thetas = np.linspace(0.3, math.pi - 0.3, 7)
    gc_rho, gc_drho, _ = walk_curve(GreatCirclePure(), thetas, ANALYTIC, DEFAULT_FD_STEP)
    return DensityStack(np.concatenate([gc_rho.matrices, rho.matrices])), np.concatenate([gc_drho, drho])


def suite_optimizer_attainment() -> list[Check]:
    rho, drho = _optimizer_scenarios()
    n = len(rho)
    ell = sld_solve_stack(rho, drho)
    qfi = quantum_fisher_of_sld(drho, ell)
    # the SLD eigenbasis by eigensolve: an oracle independent of the Bloch-axis kernel that the
    # optimizer and ``qfg scan`` without a POVM share
    _, vecs, _ = sld_eigenbasis(ell)
    basis = classical_fisher_stack(rho, drho, (eigenprojector(vecs, i) for i in range(rho.dim)))
    thetas = np.linspace(0.05, math.pi - 0.05, 50)
    gc_rho, gc_drho, _ = walk_curve(GreatCirclePure(), thetas, ANALYTIC, DEFAULT_FD_STEP)
    rhos = DensityStack(np.concatenate([rho.matrices, gc_rho.matrices]))
    drhos = np.concatenate([drho, gc_drho])
    axes, _, closed, _ = maximize_cfi_stack(rhos, drhos, sld_solve_stack(rhos, drhos))
    worst_dev = float(np.arcsin(np.minimum(1.0, np.abs(axes[n:, 1]))).max())
    # independent of the SLD: every axis of a Fibonacci grid, in one stacked pass
    outcomes = pair_outcomes(fibonacci_sphere(1024))[:, :, None]
    best = classical_fisher_stack(rhos, drhos, outcomes).max(axis=0)
    excess = float(np.max((best - closed) / closed))
    return [
        _bound(f"optimizer reaches QFI over {n} scenarios", float(np.abs(closed[:n] - qfi).max()), 1e-6),
        _bound(f"SLD eigenbasis attains QFI over {n} scenarios", float(np.abs(basis - qfi).max()), 1e-8),
        _bound("great-circle optimal axis stays in the fixed plane (rad)", worst_dev, 1e-4),
        _bound(f"no Fibonacci-grid axis beats the optimizer over {len(rhos)} scenarios",
               excess, 1e-9, "relative excess"),
    ]


def suite_attainability_soundness() -> list[Check]:
    rng = np.random.default_rng(20240909)

    def draw():
        k, z = _random_point(rng, k_lo=0.05, k_hi=0.45, z_max=3.0)
        v, dk = complex(rng.normal(), rng.normal()), rng.normal() * 0.3
        return k, z, dk, v, np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))

    k, z, dk, v, phases = _columns(draw() for _ in range(50))
    rho, drho = _qubit_stacks(k, z, dk, v)
    ell = sld_solve_stack(rho, drho)
    _, vecs, degenerate = sld_eigenbasis(ell)
    # gauge phases leave rank-one projectors unchanged
    outcomes = np.array([rank_one_projectors(phases[:, i, None] * vecs[:, :, i]) for i in range(2)])
    attains, _, residual, _ = attainability_stack(rho, ell, outcomes)
    gap = np.abs(classical_fisher_stack(rho, drho, outcomes) - quantum_fisher_of_sld(drho, ell))
    keep = ~degenerate
    worst = residual[:, keep].max(initial=0.0)
    checks = [
        Check("SLD eigenprojectors judged attaining", bool(attains[:, keep].all()), f"worst residual {worst:.3e}"),
        _bound("attaining measurements give classical = quantum", float(gap[keep].max(initial=0.0)), 1e-7),
    ]

    rho, drho, _ = walk_curve(GreatCirclePure(), np.array([math.pi / 3]), ANALYTIC, DEFAULT_FD_STEP)
    rho, drho = rho[0], drho[0]
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
