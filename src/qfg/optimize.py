"""Attainability of the quantum Fisher bound and optimal-measurement search.

A measurement outcome m attains the bound at (rho, drho) exactly when

    m^{1/2} L rho^{1/2}  =  c * m^{1/2} rho^{1/2}   for some real c,

with L the SLD. Numerically the proportionality is decided by a least-squares
fit of complex c with an explicit residual and a reality check on c.

For a qubit the projective pair of largest classical Fisher information is
the eigenbasis of the SLD (Braunstein & Caves, PRL 72, 3439, 1994), so
``maximize_cfi_stack`` takes each row's axis in closed form from the SLD's
Bloch vector, with no eigensolve. It is the one qubit bound-attaining
measurement: ``maximize_cfi`` is its one checked row, ``sld_eigenbasis_povm``
returns its pair at d = 2, and ``sld_eigenbasis_cfi`` gives a no-POVM qubit
scan chunk its CFI. At d >= 3 the SLD eigenbasis comes from ``eigh``
(``sld_eigenbasis``).
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
    finite_closed_form,
)
from .fisher import EPS_P, Povm, classical_fisher_stack, quantum_fisher_of_sld
from .linalg import (
    PAULIS,
    DensityOp,
    DensityStack,
    _psd_root,
    _reduce_rows,
    eigh,
    frobenius_inner,
    frobenius_norms,
    frobenius_real,
    matmul,
    rank_one_projectors,
    require_hermitian,
)
from .sld import SUPPORT_CUTOFF, require_coefficients, require_direction, sld_solve, sld_solve_stack

#: SLD spectra with a gap at or below this fraction of their largest |eigenvalue| have no unique eigenbasis.
SLD_GAP = 1e-10
#: An outcome attains the bound when its fit residual / max(1, ||m^1/2 rho^1/2||_F) and |Im c| are at most this.
ATTAINABILITY_TOL = 1e-8


@dataclass(frozen=True)
class AttainabilityReport:
    """Outcome of the real-proportionality test for one POVM element.

    ``vacuous`` marks outcomes of probability p = Tr[rho m] <= EPS_P, which
    are excluded from classical sums and attain trivially with c = 0.
    """

    attains: bool
    c: float
    residual: float
    vacuous: bool = False


def attainability_stack(rho: DensityStack, ell: np.ndarray, outcomes: np.ndarray):
    """The real-proportionality test of every outcome at every row: (attains, c, residual, vacuous), each (m, n).

    ``ell`` is rho's (n, d, d) SLD stack; the exactly Hermitian ``outcomes``
    are (m, n, d, d), or (m, 1, d, d) for one POVM at every row. Elements are
    rooted at their numerical rank (``psd_sqrt``), so floating-point debris is
    no support; p = Tr[rho m] is read as ``classical_fisher_stack`` reads it.
    An outcome of p <= EPS_P, or whose root drops its weight, attains vacuously.
    """
    root_m = _psd_root(*eigh(outcomes))
    root_rho = _psd_root(rho.eigenvalues, rho.eigenvectors)
    b = matmul(root_m, root_rho)
    a = matmul(matmul(root_m, ell), root_rho)
    norm_b = frobenius_norms(b)
    vacuous = (frobenius_real(rho.matrices, outcomes) <= EPS_P) | (norm_b == 0.0)
    # <b, a> / <b, b>, the least-squares c
    c = np.divide(frobenius_inner(b, a), norm_b**2, out=np.zeros(norm_b.shape, complex), where=~vacuous)
    residual = frobenius_norms(a - c[..., None, None] * b)
    attains = (residual <= ATTAINABILITY_TOL * np.maximum(1.0, norm_b)) & (np.abs(c.imag) <= ATTAINABILITY_TOL)
    return attains | vacuous, c.real, np.where(vacuous, 0.0, residual), vacuous


def attainability_check(rho: DensityOp, drho, m) -> AttainabilityReport:
    """Whether the outcome m can saturate the quantum bound at (rho, drho): one row of ``attainability_stack``."""
    ell = sld_solve(rho, drho)
    m = require_hermitian(m)  # exactly symmetrized, as a Povm stores its elements
    if m.shape[0] != rho.dim:
        raise DomainError(f"POVM dimension {m.shape[0]} does not match rho dimension {rho.dim}")
    attains, c, residual, vacuous = attainability_stack(rho.stack, ell[None], m[None, None])
    return AttainabilityReport(bool(attains[0, 0]), float(c[0, 0]), float(residual[0, 0]), bool(vacuous[0, 0]))


@dataclass(frozen=True)
class ReachResult:
    """Per-outcome pure-state attainability; truthiness is the verdict.

    ``boundary`` flags outcomes of probability |xi_1|^2 <= EPS_P that carry
    velocity weight: they are excluded from the classical sum, hence
    vacuously attaining, but that weight is lost to the measurement.
    """

    attains: bool
    boundary: bool = False

    def __bool__(self) -> bool:
        return self.attains


@finite_closed_form
def reach_check_pure(xi: Sequence[complex], a: Sequence[complex]) -> ReachResult:
    """Check real-proportionality of xi_1 and S = sum_{i>=2} xi_i a_i*.

    An outcome of probability |xi_1|^2 <= EPS_P attains vacuously, with the
    boundary flag set when velocity weight is lost (|S| > 1e-12); an overlap
    |S| <= 1e-12 attains trivially with c = 0.
    """
    a = require_coefficients(a)
    xi = np.asarray([complex(x) for x in xi])
    if xi.shape != a.shape:
        raise DomainError(f"xi and a dimensions differ: {xi.shape} vs {a.shape}")
    if np.all(a[1:] == 0):
        raise ZeroVelocityCurve("all velocity coefficients a_i (i >= 2) vanish")
    xi1 = complex(xi[0])
    s = complex(np.dot(xi[1:], a[1:].conj()))
    excluded = abs(xi1) ** 2 <= EPS_P
    if excluded or abs(s) <= 1e-12:
        return ReachResult(attains=True, boundary=excluded and abs(s) > 1e-12)
    attains = abs((xi1.conjugate() * s).imag) <= 1e-10 * max(abs(xi1) * abs(s), 1e-30)
    return ReachResult(attains=attains, boundary=False)


@dataclass(frozen=True)
class MixedConditionReport:
    """Least-squares solution of the four mixed-qubit attainability conditions."""

    satisfiable: bool
    R: float
    residuals: tuple[float, float, float, float]
    lambda_product_real: bool


@finite_closed_form
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
    if math.isinf(denom):  # the report does not carry denom, so its overflow is raised here
        raise OverflowError("mixed_conditions_check: the least-squares denominator overflows")
    best_r = float(np.sum((rhs.conj() * lhs).real)) / denom if denom > 0 else 0.0
    residuals = tuple(float(v) for v in np.abs(lhs - best_r * rhs))
    prod = lam * cross
    return MixedConditionReport(
        satisfiable=max(residuals) <= 1e-8,
        R=best_r,
        residuals=residuals,
        lambda_product_real=abs(prod.imag) <= 1e-10 * max(1.0, abs(prod)),
    )


def _degenerate(w: np.ndarray) -> np.ndarray:
    """The rows of an (n, d) stack of ascending SLD spectra whose smallest gap is <= SLD_GAP * max|w|.

    The rule is scale-free, as the eigenbasis is: L and c L agree for c > 0,
    and L = 0 is degenerate.
    """
    gap = _reduce_rows(np.minimum, np.diff(w, axis=1), initial=np.inf)
    return gap <= SLD_GAP * _reduce_rows(np.maximum, np.abs(w))


def degenerate_by_rank(w_rho: np.ndarray) -> np.ndarray:
    """The rows of an (n, d) stack of rho's ascending spectra whose SLD ``_degenerate`` flags by rho's rank alone.

    Such a row's eigenvalue at index (d + 1) // 2 is off the support (2 lam <= SUPPORT_CUTOFF), so
    rho's kernel has dimension z >= (d + 2) / 2, and every eigenvalue pair in it is off the support:
    ``sld_solve_stack`` leaves the SLD's z x z kernel block exactly 0. L then has rank at most
    2 (d - z), and its eigenvalue 0 repeats at least 2 z - d >= 2 times; the computed gap there is
    roundoff, about d eps ||L||, far below SLD_GAP max|w|. A pure state at d >= 4 is such a row
    (its SLD 2 drho has rank 2); no row at d <= 3 is, where that index lies on the support.
    One column comparison, with no per-row count.
    """
    d = w_rho.shape[1]
    return 2.0 * w_rho[:, min((d + 1) // 2, d - 1)] <= SUPPORT_CUTOFF  # d = 1 reads its one eigenvalue, 1


def sld_eigenbasis(ell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of each SLD in an (n, d, d) stack, and where it fails to be unique.

    ``ell`` must be exactly Hermitian, as ``sld_solve_stack`` returns it.
    Returns the ascending spectra (n, d), the eigenvectors (n, d, d) as
    columns, and a mask of the rows whose spectrum has a gap at or below
    SLD_GAP times its largest |eigenvalue| (``_degenerate``).
    """
    w, v = eigh(ell)
    return w, v, _degenerate(w)


def eigenprojector(v: np.ndarray, i: int) -> np.ndarray:
    """The projectors on eigenvector column i of each row of an (n, d, d) eigenvector stack."""
    return rank_one_projectors(v[:, :, i])


def sld_eigenbasis_povm(rho: DensityOp, drho) -> Povm:
    """Rank-one eigenprojectors of the SLD; the bound-attaining measurement.

    A qubit's are the pair P(+-n) on the SLD's Bloch axis, as
    ``maximize_cfi_stack`` builds it, with no eigensolve; d >= 3 takes the
    eigenvectors of ``sld_eigenbasis``. A degenerate SLD raises DegenerateSld.
    """
    drho = require_direction(drho, rho.dim)
    ell = sld_solve_stack(rho.stack, drho[None])
    if rho.dim == 2:
        _, outcomes, _, degenerate = maximize_cfi_stack(rho.stack, drho[None], ell)
    else:
        _, v, degenerate = sld_eigenbasis(ell)
        outcomes = np.array([eigenprojector(v, i) for i in range(rho.dim)])
    if degenerate[0]:
        raise DegenerateSld(f"the SLD spectrum has a relative gap at or below {SLD_GAP:g}")
    return Povm.of_projectors(outcomes[:, 0])


def sld_eigenbasis_cfi(rho: DensityStack, drho: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """The classical Fisher information of each row's SLD eigenbasis measurement, +0 where it is not unique.

    ``ell`` is rho's exactly Hermitian SLD stack. A qubit stack measures the
    pairs of ``maximize_cfi_stack``; a stack whose every row's rank makes its
    SLD degenerate (``degenerate_by_rank``) is 0 with no eigensolve; any other
    stack measures the eigenprojectors of ``sld_eigenbasis``.
    """
    if rho.dim == 2:
        _, _, cfi, degenerate = maximize_cfi_stack(rho, drho, ell)
    elif degenerate_by_rank(rho.eigenvalues).all():  # every pure stack at d >= 4
        return np.zeros(len(rho))
    else:
        _, v, degenerate = sld_eigenbasis(ell)
        cfi = classical_fisher_stack(rho, drho, (eigenprojector(v, i) for i in range(rho.dim)))
    return np.where(degenerate, 0.0, cfi)


def bloch_vector(matrix) -> np.ndarray:
    """Pauli components (Tr[M sx], Tr[M sy], Tr[M sz]) of a Hermitian 2x2 matrix."""
    matrix = require_hermitian(matrix)
    if matrix.shape != (2, 2):
        raise DimensionUnsupported(f"Bloch vectors are defined for 2x2 matrices, not {matrix.shape}")
    return frobenius_real(np.array(PAULIS), matrix)


def pair_outcomes(axes) -> np.ndarray:
    """Projectors P(n), P(-n) of each unit Bloch axis n of an (..., 3) array, as (2, ..., 2, 2).

    P(+-n) = (I +- n.sigma) / 2 is formed entry by entry as array operations,
    each entry one rounding at most, so a row's bits are its own whatever the
    stack size. An (n, 3) array of axes gives the per-row outcomes of
    ``classical_fisher_stack``.
    """
    n = np.asarray(axes, dtype=float)
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    pair = np.zeros((2, *n.shape[:-1], 2, 2), dtype=complex)
    for p, sign in zip(pair, (1.0, -1.0)):
        p.real[..., 0, 0], p.real[..., 1, 1] = (1 + sign * nz) / 2, (1 - sign * nz) / 2
        p.real[..., 0, 1] = p.real[..., 1, 0] = sign * nx / 2
        p.imag[..., 0, 1], p.imag[..., 1, 0] = -sign * ny / 2, sign * ny / 2
    return pair


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform grid of n unit vectors."""
    i = np.arange(n)
    y = 1.0 - 2.0 * (i + 0.5) / n
    radius = np.sqrt(np.clip(1.0 - y * y, 0.0, None))
    angle = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([np.cos(angle) * radius, y, np.sin(angle) * radius])


@dataclass(frozen=True)
class OptimizeResult:
    """The optimal pair ``povm`` along ``axis``, its CFI ``value`` and the QFI of the same SLD."""

    povm: Povm
    value: float
    qfi: float
    axis: np.ndarray
    degenerate: bool


def maximize_cfi_stack(rho: DensityStack, drho: np.ndarray, ell: np.ndarray):
    """The projective pair of largest classical Fisher information at each row of qubit stacks.

    Returns (axes (n, 3), outcomes (2, n, 2, 2), cfi (n,), degenerate (n,)).
    For rho = (I + s.sigma)/2 and drho = w.sigma/2 the pair along a unit axis n
    has CFI (n.w)^2 / (1 - (n.s)^2), largest at the Bloch axis of the SLD,
    l = w + s (s.w) / (1 - |s|^2), where it equals the QFI. ``ell`` is rho's
    exactly Hermitian SLD stack a I + l.sigma, so a and l are read from its
    entries; its spectrum a -+ |l| is judged by ``_degenerate``, the rule of
    ``sld_eigenbasis``, without an eigendecomposition. A degenerate row (a
    vanishing drho, the degenerate mixing point included) is measured along z.
    The outcomes are ``pair_outcomes`` of the axes and the CFI is
    ``classical_fisher_stack``'s, so a row's bits are its own whatever the
    stack size.
    """
    f = np.ascontiguousarray(ell).reshape(len(ell), 4).view(float)  # re, im of l_00, l_01, l_10, l_11
    a = (f[:, 0] + f[:, 6]) / 2
    l = np.stack([f[:, 4], f[:, 5], (f[:, 0] - f[:, 6]) / 2], axis=1)
    # |l| as np.linalg.norm takes it, one dot per row, of l scaled by the power of two of its largest
    # entry: the same bits where l.l neither overflows nor underflows, and a scale-free rule where it would
    exp = np.frexp(_reduce_rows(np.maximum, np.abs(l)))[1]
    scaled = np.ldexp(l, -exp[:, None])
    norm = np.sqrt(np.vecdot(scaled, scaled))
    radius = np.ldexp(norm, exp)
    degenerate = _degenerate(np.stack([a - radius, a + radius], axis=1))
    axes = np.zeros_like(l)
    axes[:, 2] = 1.0
    np.divide(scaled, norm[:, None], out=axes, where=~degenerate[:, None])
    del a, l, scaled, norm, radius  # dead before the (2, n, 2, 2) outcomes are formed
    outcomes = pair_outcomes(axes)
    return axes, outcomes, classical_fisher_stack(rho, drho, outcomes), degenerate


def maximize_cfi(rho: DensityOp, drho) -> OptimizeResult:
    """The projective qubit pair of largest classical Fisher information: one checked row of ``maximize_cfi_stack``.

    A degenerate SLD sets the flag and measures along z, where a vanishing
    drho gives value 0; a drho leaving the support of rho raises
    SupportMismatch, as in ``quantum_fisher``. ``qfi`` is
    ``quantum_fisher(rho, drho)``, taken from the same SLD, so drho is checked
    once and the SLD solved once.
    """
    if rho.dim != 2:
        raise DimensionUnsupported("the projective optimizer supports qubits only")
    drho = require_direction(drho, 2)[None]
    ell = sld_solve_stack(rho.stack, drho)
    axes, outcomes, value, degenerate = maximize_cfi_stack(rho.stack, drho, ell)
    qfi = float(quantum_fisher_of_sld(drho, ell)[0])
    return OptimizeResult(Povm.of_projectors(outcomes[:, 0]), float(value[0]), qfi, axes[0], bool(degenerate[0]))
