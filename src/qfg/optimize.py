"""Attainability of the quantum Fisher bound and optimal-measurement search.

A measurement outcome m attains the bound at (rho, drho) exactly when

    m^{1/2} L rho^{1/2}  =  c * m^{1/2} rho^{1/2}   for some real c,

with L the SLD. Numerically the proportionality is decided by a least-squares
fit of complex c with an explicit residual and a reality check on c.

The projective-measurement optimizer scans Bloch axes on a deterministic
Fibonacci sphere grid and refines the best cells with golden-section line
searches along local tangent directions; it is seedless and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSld,
    DimensionUnsupported,
    DomainError,
    ZeroVelocityCurve,
)
from .fisher import EPS_P, Povm, classical_fisher
from .linalg import (
    IDENTITY2,
    PAULIS,
    SQRT_RANK_CUTOFF,
    DensityOp,
    dagger,
    eigh,
    hermitian_part,
    psd_sqrt,
    require_hermitian,
)
from .sld import sld_solve

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: For a numerically pure state, outcomes at or below this probability are left
#: out of the search objective: there the roundoff in p dominates t^2 / p, and
#: the search would chase it to a CFI above the QFI. A state of full numerical
#: rank gives every outcome p >= lam_min, so its search keeps EPS_P, as does the
#: reported CFI.
SEARCH_P_CUTOFF = 1e-6
#: Smallest and largest Fibonacci grid of maximize_cfi; the largest holds a few MB.
GRID_N_RANGE = (8, 65536)
#: Fewest and most refinement rounds of maximize_cfi; each round halves the step,
#: and the step falls below 1e-12 within 42 rounds, so more would never run.
REFINE_ITERS_RANGE = (0, 64)


@dataclass(frozen=True)
class AttainabilityReport:
    """Outcome of the real-proportionality test for one POVM element.

    ``vacuous`` marks outcomes orthogonal to the state (p = 0), which are
    excluded from classical sums and attain trivially with c = 0.
    """

    attains: bool
    c: float
    residual: float
    vacuous: bool = False


def attainability_check(rho: DensityOp, drho, m, tol: float = 1e-8) -> AttainabilityReport:
    """Decide whether the outcome m can saturate the quantum bound at (rho, drho).

    The element is taken at its numerical rank before the square root (see
    ``psd_sqrt``), so spurious floating-point weight cannot masquerade as
    support.
    """
    ell = sld_solve(rho, drho)
    root_m = psd_sqrt(m)
    b = root_m @ rho.sqrt
    norm_b = float(np.linalg.norm(b))
    if norm_b <= 1e-12:
        return AttainabilityReport(attains=True, c=0.0, residual=0.0, vacuous=True)
    a = root_m @ ell @ rho.sqrt
    c = complex(np.trace(b.conj().T @ a)) / norm_b**2
    residual = float(np.linalg.norm(a - c * b))
    attains = residual <= tol * max(1.0, norm_b) and abs(c.imag) <= tol
    return AttainabilityReport(attains=attains, c=c.real, residual=residual)


@dataclass(frozen=True)
class ReachResult:
    """Per-outcome pure-state attainability; truthiness is the verdict.

    ``boundary`` flags outcomes with xi_1 = 0 (zero outcome probability):
    they are excluded from the classical sum, hence vacuously attaining, but
    any velocity weight they carry is lost to the measurement.
    """

    attains: bool
    boundary: bool = False

    def __bool__(self) -> bool:
        return self.attains


def reach_check_pure(xi: Sequence[complex], a: Sequence[complex]) -> ReachResult:
    """Check real-proportionality of xi_1 and S = sum_{i>=2} xi_i a_i*.

    Magnitudes at or below 1e-12 count as zero (the module-wide outcome
    cutoff): a vanishing S attains trivially with c = 0, and a vanishing xi_1
    attains vacuously with the boundary flag set when velocity weight is lost.
    """
    xi = np.asarray([complex(x) for x in xi])
    a = np.asarray([complex(x) for x in a])
    if xi.shape != a.shape:
        raise DomainError(f"xi and a dimensions differ: {xi.shape} vs {a.shape}")
    if abs(a[0].real) > 1e-12:
        raise DomainError(f"a[0] = {a[0]!r} must be pure imaginary")
    if np.all(a[1:] == 0):
        raise ZeroVelocityCurve("all velocity coefficients a_i (i >= 2) vanish")
    xi1 = complex(xi[0])
    s = complex(np.dot(xi[1:], a[1:].conj()))
    if abs(xi1) <= 1e-12 or abs(s) <= 1e-12:
        return ReachResult(attains=True, boundary=abs(xi1) <= 1e-12 < abs(s))
    attains = abs((xi1.conjugate() * s).imag) <= 1e-10 * max(abs(xi1) * abs(s), 1e-30)
    return ReachResult(attains=attains, boundary=False)


@dataclass(frozen=True)
class MixedConditionReport:
    """Least-squares solution of the four mixed-qubit attainability conditions."""

    satisfiable: bool
    R: float
    residuals: tuple[float, float, float, float]
    lambda_product_real: bool


def mixed_conditions_check(
    xi1: complex, xi2: complex, k: float, lam: complex
) -> MixedConditionReport:
    """Fit the best real R across the four rank-one attainability conditions.

    In the eigenbasis of rho = diag(k1, k2) with outcome vector (xi1, xi2) and
    sphere coefficient lam, the conditions are linear in R; satisfiability
    means all four residuals vanish within 1e-8. Also reports whether the
    derived necessary condition lam * xi1 * xi2* is real within 1e-10.
    """
    if not (0.0 < k < 0.5):
        raise DomainError(f"k={k!r} outside (0, 1/2)")
    xi1 = complex(xi1)
    xi2 = complex(xi2)
    lam = complex(lam)
    if xi1 == 0 and xi2 == 0:
        raise DomainError("outcome vector (xi1, xi2) must be nonzero")
    k1, k2 = k, 1.0 - k
    kd = 2.0 * (k1 - k2)
    cross = xi1 * xi2.conjugate()
    lhs = np.array([abs(xi1) ** 2, abs(xi2) ** 2, cross.conjugate(), cross])
    rhs = np.array(
        [
            abs(xi1) ** 2 / k1 + kd * lam * cross,
            -abs(xi2) ** 2 / k2 + kd * lam.conjugate() * cross.conjugate(),
            cross.conjugate() / k1 + kd * lam * abs(xi2) ** 2,
            -cross / k2 + kd * lam.conjugate() * abs(xi1) ** 2,
        ]
    )
    denom = float(np.sum(np.abs(rhs) ** 2))
    best_r = float(np.sum((rhs.conj() * lhs).real)) / denom if denom > 0 else 0.0
    residuals = tuple(float(v) for v in np.abs(lhs - best_r * rhs))
    prod = lam * cross
    return MixedConditionReport(
        satisfiable=max(residuals) <= 1e-8,
        R=best_r,
        residuals=residuals,
        lambda_product_real=abs(prod.imag) <= 1e-10 * max(1.0, abs(prod)),
    )


#: SLD spectra with an eigenvalue gap below this have no unique eigenbasis.
SLD_GAP = 1e-10


def sld_eigenbasis(ell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of each SLD in an (n, d, d) stack, and where it fails to be unique.

    Returns the ascending spectra (n, d), the eigenvectors (n, d, d) as
    columns, and a mask of the rows whose spectrum has a gap below SLD_GAP.
    """
    w, v = eigh(hermitian_part(ell))
    return w, v, np.diff(w, axis=1).min(axis=1, initial=np.inf) < SLD_GAP


def eigenprojector(v: np.ndarray, i: int) -> np.ndarray:
    """The projectors on eigenvector column i of each row of an (n, d, d) eigenvector stack."""
    p = v[:, :, i, None] * v[:, None, :, i].conj()
    return (p + dagger(p)) / 2


def sld_eigenbasis_povm(rho: DensityOp, drho) -> Povm:
    """Rank-one eigenprojectors of the SLD; the bound-attaining measurement."""
    w, v, degenerate = sld_eigenbasis(sld_solve(rho, drho)[None])
    if degenerate[0]:
        raise DegenerateSld(f"SLD spectrum {w[0]} has a gap below {SLD_GAP:g}")
    return Povm.of_projectors(np.array([eigenprojector(v, i)[0] for i in range(rho.dim)]))


def bloch_vector(matrix) -> np.ndarray:
    """Pauli components (Tr[M sx], Tr[M sy], Tr[M sz]) of a Hermitian 2x2 matrix."""
    m = require_hermitian(matrix)
    return np.array([float(np.trace(m @ s).real) for s in PAULIS])


def projector_pair(axis) -> Povm:
    """Projective pair {P(n), P(-n)} for a unit Bloch axis n."""
    n = np.asarray(axis, dtype=float)
    ns = sum(float(c) * s for c, s in zip(n, PAULIS))
    return Povm([(IDENTITY2 + ns) / 2, (IDENTITY2 - ns) / 2])


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform grid of n unit vectors."""
    i = np.arange(n)
    y = 1.0 - 2.0 * (i + 0.5) / n
    radius = np.sqrt(np.clip(1.0 - y * y, 0.0, None))
    angle = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([np.cos(angle) * radius, y, np.sin(angle) * radius])


@dataclass(frozen=True)
class OptimizeResult:
    povm: Povm
    value: float
    axis: np.ndarray
    degenerate: bool


def _search_cutoff(rho: DensityOp) -> float:
    """The outcome-probability cutoff of the search objective at rho."""
    lam = rho.eigenvalues
    pure = lam[0] <= SQRT_RANK_CUTOFF * max(1.0, float(lam[-1]))
    return SEARCH_P_CUTOFF if pure else EPS_P


def _pair_cfi(n, s, w, cutoff=EPS_P) -> float:
    # the search objective: classical_fisher of {P(n), P(-n)} in Bloch components,
    # over the outcomes above cutoff
    t = (n[0] * w[0] + n[1] * w[1] + n[2] * w[2]) / 2.0
    ns = n[0] * s[0] + n[1] * s[1] + n[2] * s[2]
    total = 0.0
    for sign in (1.0, -1.0):
        p = (1.0 + sign * ns) / 2.0
        if p > cutoff:
            total += t * t / p
    return total


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _normalized(a):
    norm = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
    return (a[0] / norm, a[1] / norm, a[2] / norm)


def _tangent_frame(n):
    axis = [0.0, 0.0, 0.0]
    axis[min(range(3), key=lambda i: abs(n[i]))] = 1.0
    e1 = _normalized(_cross(n, axis))
    return e1, _cross(n, e1)


def _golden_max(f, lo: float, hi: float, iters: int = 28) -> float:
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
    return (lo + hi) / 2.0


def maximize_cfi(
    rho: DensityOp, drho, grid_n: int = 1024, refine_iters: int = 40
) -> OptimizeResult:
    """Maximize classical Fisher information over projective qubit pairs.

    Fibonacci-sphere scan followed by golden-section refinement of the best
    cells; fully deterministic. A vanishing drho (including the degenerate
    mixing point) yields value 0 with the degeneracy flag set.
    """
    if rho.dim != 2:
        raise DimensionUnsupported("the projective optimizer supports qubits only")
    if not GRID_N_RANGE[0] <= grid_n <= GRID_N_RANGE[1]:
        raise DomainError(f"grid_n={grid_n!r} outside [{GRID_N_RANGE[0]}, {GRID_N_RANGE[1]}]")
    if not REFINE_ITERS_RANGE[0] <= refine_iters <= REFINE_ITERS_RANGE[1]:
        lo, hi = REFINE_ITERS_RANGE
        raise DomainError(f"refine_iters={refine_iters!r} outside [{lo}, {hi}]")
    drho = require_hermitian(drho)
    w = bloch_vector(drho)
    if float(np.linalg.norm(w)) <= 1e-12:
        axis = np.array([0.0, 0.0, 1.0])
        povm = projector_pair(axis)
        return OptimizeResult(povm, classical_fisher(rho, drho, povm), axis, degenerate=True)
    s = bloch_vector(rho.matrix)
    cutoff = _search_cutoff(rho)

    grid = fibonacci_sphere(grid_n)
    t = grid @ w / 2.0
    values = np.zeros(grid_n)
    for sign in (1.0, -1.0):
        p = (1.0 + sign * (grid @ s)) / 2.0
        mask = p > cutoff
        values[mask] += t[mask] ** 2 / p[mask]
    candidates = [tuple(grid[i]) for i in np.argsort(values)[-3:]]

    spacing = 2.0 * math.sqrt(4.0 * math.pi / grid_n)
    s = tuple(s)
    w = tuple(w)

    def refine(n, rounds):
        val = _pair_cfi(n, s, w, cutoff)
        h = spacing
        for _ in range(rounds):
            for e in _tangent_frame(n):
                def along(tt, n=n, e=e):
                    ct, st = math.cos(tt), math.sin(tt)
                    return _pair_cfi(
                        (ct * n[0] + st * e[0], ct * n[1] + st * e[1], ct * n[2] + st * e[2]),
                        s,
                        w,
                        cutoff,
                    )

                t_star = _golden_max(along, -h, h)
                ct, st = math.cos(t_star), math.sin(t_star)
                cand = _normalized(
                    (ct * n[0] + st * e[0], ct * n[1] + st * e[1], ct * n[2] + st * e[2])
                )
                cand_val = _pair_cfi(cand, s, w, cutoff)
                if cand_val >= val:
                    n, val = cand, cand_val
            h *= 0.5
            if h < 1e-12:
                break
        return n, val

    # Pre-refine each candidate cell briefly, then run the best one to depth.
    pre = [refine(n, min(8, refine_iters)) for n in candidates]
    best_n, _ = max(pre, key=lambda item: item[1])
    best_n, _ = refine(best_n, refine_iters)

    axis = np.array(best_n)
    povm = projector_pair(axis)
    return OptimizeResult(povm, classical_fisher(rho, drho, povm), axis, degenerate=False)
