"""Independent reference values for ``qfg scan`` outputs.

Nothing here imports qfg. Each reference comes from a closed form of the
physics, evaluated on the scenario dictionaries that were written for qfg:

* sphere QFI ``4 (1-2k)^2 |v|^2 / (1+|z|^2)^2`` at z = z0 + v theta;
* transverse QFI ``k'^2 / (k (1-k))`` at k = k0 + rate theta;
* pure-state QFI ``4 (<dpsi|dpsi> - |<psi|dpsi>|^2)``, which for the unitary
  coefficient flow is the constant ``4 sum_{i>=2} |a_i|^2``;
* tabulated curves: ``sum_ij 2 |<i|drho|j>|^2 / (lam_i + lam_j)`` in the
  ``np.linalg.eigh`` eigenbasis of the interpolated matrix, with the exact
  derivative ``(rho_1 - rho_0) / (theta_1 - theta_0)`` of the linear segment.

Without a POVM the CLI measures in the SLD eigenbasis, which attains the QFI
(Braunstein & Caves, PRL 72, 3439, 1994) whenever the SLD spectrum is
non-degenerate; when it is degenerate the CLI reports cfi = 0. A pure state's
SLD has rank 2 (eigenvalues +-2|dpsi_perp| and d-2 zeros), so it is
non-degenerate at d = 2 and d = 3 and degenerate from d = 4 on. Qubit mixed
SLDs have eigenvalues dk/k and -dk/(1-k) (transverse) or +-|.| (sphere), so
they are never degenerate on these curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ANALYTIC_RTOL = 1e-9
FD_RTOL = 1e-6
#: Outcome probabilities at or below this are excluded, as the CLI documents.
EPS_P = 1e-12
#: SLD eigenvalue gaps (relative to the spectrum's scale) that decide cfi.
GAP_NONDEGENERATE = 1e-7
GAP_DEGENERATE = 1e-12
SCAN_HEADER = "theta,cfi,qfi_sphere,qfi_transverse,qfi_total"


@dataclass(frozen=True)
class RowRef:
    """Reference for one scan row; ``cfi`` is None where either value is right."""

    qfi: float
    sphere: float
    transverse: float
    cfi: float | None
    rtol: float


def _cpx(pair) -> complex:
    return complex(pair[0], pair[1])


def _matrix(data) -> np.ndarray:
    return np.array([[_cpx(x) for x in row] for row in data])


def _sphere_qfi(k: float, z: complex, v: complex) -> float:
    return 4.0 * (1.0 - 2.0 * k) ** 2 * abs(v) ** 2 / (1.0 + abs(z) ** 2) ** 2


def _transverse_qfi(k: float, dk: float) -> float:
    return dk * dk / (k * (1.0 - k))


def _great_circle(phase: float, theta: float):
    """psi(theta) = (cos(theta/2), e^{i phase} sin(theta/2)) and its derivative."""
    e = complex(math.cos(phase), math.sin(phase))
    psi = np.array([math.cos(theta / 2), e * math.sin(theta / 2)])
    dpsi = 0.5 * np.array([-math.sin(theta / 2), e * math.cos(theta / 2)])
    return psi, dpsi


def _pure_qfi(psi: np.ndarray, dpsi: np.ndarray) -> float:
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


def _pure_povm_cfi(psi: np.ndarray, dpsi: np.ndarray, elements) -> float:
    total = 0.0
    for m in elements:
        p = np.vdot(psi, m @ psi).real
        if p > EPS_P:
            dp = 2.0 * np.vdot(dpsi, m @ psi).real
            total += dp * dp / p
    return total


def _table_reference(curve: dict, theta: float) -> tuple[float, float, float | None]:
    """(qfi, transverse, cfi) of a two-sample table at theta."""
    (s0, s1) = curve["samples"]
    t0, t1 = s0["theta"], s1["theta"]
    rho0, rho1 = _matrix(s0["rho"]), _matrix(s1["rho"])
    frac = (theta - t0) / (t1 - t0)
    lam, vecs = np.linalg.eigh((1.0 - frac) * rho0 + frac * rho1)
    drho = vecs.conj().T @ ((rho1 - rho0) / (t1 - t0)) @ vecs
    denom = lam[:, None] + lam[None, :]
    qfi = float(np.sum(2.0 * np.abs(drho) ** 2 / denom))
    # the CLI splits off the drift of the smallest eigenvalue as a qubit-style
    # transverse term; Hellmann-Feynman gives that drift as <v_min|drho|v_min>
    k, dk = float(lam[0]), float(drho[0, 0].real)
    transverse = min(_transverse_qfi(k, dk), qfi)
    sld_spectrum = np.linalg.eigvalsh(2.0 * drho / denom)
    gap = float(np.min(np.diff(sld_spectrum))) / max(1.0, float(np.max(np.abs(sld_spectrum))))
    if gap > GAP_NONDEGENERATE:
        cfi = qfi
    elif gap < GAP_DEGENERATE:
        cfi = 0.0
    else:
        cfi = None
    return qfi, transverse, cfi


def row_reference(scenario: dict, theta: float) -> RowRef:
    """Closed-form reference for ``qfg scan`` at one theta."""
    curve = scenario["curve"]
    family = curve["family"]
    fd = scenario.get("options", {}).get("mode") == "fd"
    rtol = FD_RTOL if fd or family == "table" else ANALYTIC_RTOL
    if family == "sphere_curve":
        v = _cpx(curve["path"]["velocity"])
        z = _cpx(curve["path"]["z0"]) + v * theta
        qfi = _sphere_qfi(curve["k"], z, v)
        return RowRef(qfi, qfi, 0.0, qfi, rtol)
    if family == "transverse_curve":
        path = curve["path"]
        qfi = _transverse_qfi(path["k0"] + path["rate"] * theta, path["rate"])
        return RowRef(qfi, 0.0, qfi, qfi, rtol)
    if family == "great_circle_pure":
        psi, dpsi = _great_circle(curve["phase"], theta)
        qfi = _pure_qfi(psi, dpsi)
        if "povm" in scenario:
            cfi = _pure_povm_cfi(psi, dpsi, [_matrix(m) for m in scenario["povm"]["elements"]])
        else:
            cfi = qfi  # a qubit pure-state SLD has eigenvalues +-1: non-degenerate
        return RowRef(qfi, qfi, 0.0, cfi, rtol)
    if family == "pure_qdit_coeffs":
        a = [_cpx(x) for x in curve["a"]]
        qfi = 4.0 * sum(abs(x) ** 2 for x in a[1:])
        # rank-2 SLD: d - 2 zero eigenvalues repeat from d = 4 on
        return RowRef(qfi, qfi, 0.0, qfi if len(a) <= 3 else 0.0, rtol)
    if family == "table":
        qfi, transverse, cfi = _table_reference(curve, theta)
        return RowRef(qfi, max(qfi - transverse, 0.0), transverse, cfi, rtol)
    raise ValueError(f"no reference for curve family {family!r}")


def _close(value: float, ref: float, rtol: float, scale: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), scale)


def check_row(fields: list[float], theta: float, ref: RowRef) -> list[str]:
    """Problems with one parsed CSV row; empty when the row is accepted."""
    th, cfi, sphere, transverse, total = fields
    tol = ref.rtol
    problems = []
    if not _close(th, theta, 1e-11, 1.0):
        problems.append(f"theta {th!r} != {theta!r}")
    if not _close(total, ref.qfi, tol, 0.0):
        problems.append(f"qfi_total {total!r} != reference {ref.qfi!r}")
    if not _close(sphere, ref.sphere, tol, ref.qfi):
        problems.append(f"qfi_sphere {sphere!r} != reference {ref.sphere!r}")
    if not _close(transverse, ref.transverse, tol, ref.qfi):
        problems.append(f"qfi_transverse {transverse!r} != reference {ref.transverse!r}")
    if not _close(sphere + transverse, total, tol, 0.0):
        problems.append(f"qfi_sphere + qfi_transverse = {sphere + transverse!r} != qfi_total {total!r}")
    if cfi > total * (1.0 + 1e-9):
        problems.append(f"cfi {cfi!r} exceeds qfi_total {total!r}")
    if ref.cfi is not None and not _close(cfi, ref.cfi, tol, ref.qfi):
        problems.append(f"cfi {cfi!r} != reference {ref.cfi!r}")
    return problems


def check_scan(cmd, rc, stdout: str) -> list[str]:
    """Problems with one ``qfg scan`` invocation; empty when accepted."""
    if rc != 0:
        return [f"exit code {rc!r}"]
    lines = stdout.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return [f"bad CSV header {lines[:1]!r}"]
    thetas = cmd.thetas
    if len(lines) - 1 != len(thetas):
        return [f"{len(lines) - 1} rows, expected {len(thetas)}"]
    problems = []
    for i, (line, theta) in enumerate(zip(lines[1:], thetas)):
        try:
            fields = [float(x) for x in line.split(",")]
        except ValueError:
            fields = []
        if len(fields) != 5:
            problems.append(f"row {i}: malformed {line!r}")
            continue
        problems += [f"row {i}: {p}" for p in check_row(fields, theta, row_reference(cmd.scenario, theta))]
    return problems
