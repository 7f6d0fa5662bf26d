"""Classical and quantum Fisher information and the full Fisher tensor.

Classical Fisher information of a POVM {m_x}:

    i = sum_{x: p_x > eps} (Tr[drho m_x])^2 / Tr[rho m_x],   p_x = Tr[rho m_x],

with eps = EPS_P = 1e-12 realizing the restriction to outcomes of positive
probability. Quantum Fisher information is Tr[rho L^2] for the SLD L, an
upper bound on i for every POVM (Braunstein & Caves, PRL 72, 3439, 1994).
By the SLD equation drho = (rho L + L rho) / 2 it is also the real pairing
Tr[drho L], which is how ``quantum_fisher_of_sld`` takes it: one
``linalg.frobenius_real``, with no matrix product. p and dp are the same
pairing, of rho and drho with m.

The Fisher tensor on tangent directions a, b is the complex number
F_ab = Tr[rho L_a L_b] = conj(F_ba); its real part is the metric (Fubini-Study
type) and its imaginary part the antisymmetric (KKS type) form.
``fisher_tensor_stack`` is the one kernel that forms it, over a stack of p
SLDs per rho; the QFI is its real diagonal by the SLD equation, and
``fisher_tensor_general`` its one-row, two-direction case. On a qubit sphere
tangent pair (v, v') it reduces to

    4 (k1-k2)^2 / (1+|z|^2)^2 * [ (k1+k2) Re(v* v') + i (k1-k2) Im(v* v') ],

the pure-state pair of ``geometry.coordinate_forms`` weighted by (k1-k2)^2
and (k1-k2)^3. ``_sphere_tensor`` is the one closed form of it:
``fisher_tensor``, ``total_fisher_metric``, ``qfi_qubit_closed_form`` and
``coordinate_forms`` (its k = 0 row) call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidPovm,
    NotAPovm,
    NotNormalized,
    QfgError,
    finite_closed_form,
)
from .linalg import (
    PSD_EIGENVALUE_FLOOR,
    DensityOp,
    DensityStack,
    _square,
    eigh,
    frobenius_inner,
    frobenius_real,
    hermitian_part,
    matmul,
)
from .sld import TableCurve, TransverseCurve, require_coefficients, require_direction, sld_solve_stack
from .states import Chart, require_mixing_weight

#: Outcomes with probability at or below this are excluded from classical sums.
EPS_P = 1e-12
#: Outcome families whose sum differs from the identity by more than this (Frobenius norm) are no POVM.
POVM_TOL = 1e-9


def _povm_stack(elements: Sequence) -> np.ndarray:
    """The exactly Hermitian (m, d, d) stack of a POVM's elements; InvalidPovm names the first defect."""
    if len(elements) == 0:
        raise InvalidPovm("POVM has no elements")
    try:
        mats = [_square(m) for m in elements]
    except (DimensionMismatch, TypeError, ValueError) as exc:
        raise InvalidPovm(f"element is not Hermitian: {exc}") from None
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            raise InvalidPovm(f"element {i} has dimension {m.shape[0]}, expected {dim}")
    try:
        stack = hermitian_part(np.array(mats))
    except QfgError as exc:
        raise InvalidPovm(f"element is not Hermitian: {exc}") from None
    low = eigh(stack)[0][:, 0]
    bad = low < PSD_EIGENVALUE_FLOOR
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidPovm(f"element {i} has negative eigenvalue {low[i]:.3e}")
    defect = float(np.linalg.norm(stack.sum(axis=0) - np.eye(dim)))
    if defect > POVM_TOL:
        raise InvalidPovm(f"elements sum to identity with defect {defect:.3e} > {POVM_TOL:g}")
    return stack


class Povm:
    """Finite POVM: PSD elements summing to the identity within POVM_TOL."""

    def __init__(self, elements: Sequence):
        stack = _povm_stack(elements)
        stack.setflags(write=False)
        self.stack = stack

    @classmethod
    def of_projectors(cls, projectors: np.ndarray) -> "Povm":
        """A POVM from Hermitian rank-one projectors known to resolve the identity, unchecked."""
        povm = cls.__new__(cls)
        projectors.setflags(write=False)
        povm.stack = projectors
        return povm

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self):
        return iter(self.stack)

    def __repr__(self) -> str:
        return f"Povm({len(self)} outcomes, dim={self.dim})"


def classical_fisher_stack(rho: DensityStack, drho: np.ndarray, outcomes) -> np.ndarray:
    """Classical Fisher information of each row of (rho, drho) stacks.

    Trusts ``drho`` to be valid row by row (see ``require_direction``), so
    exactly Hermitian, as ``rho.matrices`` are, and the outcomes to be of
    rho's dimension: p = Re Tr[rho m] and dp = Re Tr[drho m] are each one
    ``frobenius_real``, which for Hermitian rho and drho is the real part of
    Tr[rho m] and Tr[drho m] whether or not m is exactly Hermitian.
    ``outcomes`` yields one POVM element per outcome: an (n, d, d) stack with
    the element of each row, or a (1, d, d) one that measures every row alike.
    A (k, 1, d, d) element measures every row with each of k POVMs and gives
    a (k, n) result.
    """
    total = np.zeros(len(drho))
    for m in outcomes:
        p = frobenius_real(rho.matrices, m)
        dp = frobenius_real(drho, m)
        total = total + np.divide(dp * dp, p, out=np.zeros_like(p), where=p > EPS_P)
    return total


def classical_fisher(rho: DensityOp, drho, povm: Povm) -> float:
    """Classical Fisher information of the POVM at (rho, drho)."""
    drho = require_direction(drho, rho.dim)
    if povm.dim != rho.dim:
        raise DomainError(f"POVM dimension {povm.dim} does not match rho dimension {rho.dim}")
    return float(classical_fisher_stack(rho.stack, drho[None], povm.stack[:, None])[0])


def fisher_tensor_stack(rho: DensityStack, ell: np.ndarray) -> np.ndarray:
    """Fisher tensor F_ab = Tr[rho L_a L_b] = conj(F_ba), (n, p, p), of an (n, p, d, d) stack of p SLDs per row.

    The SLDs must be exactly Hermitian, as ``sld_solve_stack`` returns them:
    F_ab is ``frobenius_inner`` of L_b, the Hermitian operand, with rho L_a,
    the one matrix product formed, by ``linalg.matmul``. The complex kernel is
    needed for the imaginary part; the real diagonal F_aa is the QFI, which
    ``quantum_fisher_of_sld`` pairs as Tr[drho_a L_a] without the product.
    """
    rho_ell = matmul(rho.matrices[:, None], ell)
    return frobenius_inner(ell[:, None], rho_ell[:, :, None])


def quantum_fisher_of_sld(drho: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Quantum Fisher information of each row of the exactly Hermitian (n, d, d) stacks drho and its SLD ``ell``.

    It is max(Tr[drho L], 0), one ``frobenius_real``: by the SLD equation
    drho = (rho L + L rho) / 2, Tr[drho L] = Tr[rho L^2], the Fisher tensor's
    real diagonal, with no rho L product formed. The pairing is also the
    better-conditioned form: it gives a pure great circle's QFI as exactly 1.
    """
    return np.maximum(frobenius_real(drho, ell), 0.0)


def quantum_fisher(rho: DensityOp, drho) -> float:
    """Quantum Fisher information Tr[rho L^2] = Tr[drho L]."""
    drho = require_direction(drho, rho.dim)[None]
    return float(quantum_fisher_of_sld(drho, sld_solve_stack(rho.stack, drho))[0])


def qfi_split(curve, rho: DensityStack, thetas: np.ndarray, stepped: np.ndarray, h: float, total: np.ndarray):
    """Split each QFI value along a curve into (sphere, transverse) parts.

    ``rho`` holds the checked states rho(theta) and ``stepped`` the curve's
    matrices at theta + h then theta - h, both from the chunk's one walk
    (``sld.walk_curve``); the split checks no state and walks no curve.
    Transverse curves are all transverse (the closed form dk^2 / (k (1-k))),
    and every family but a table is all sphere. A tabulated curve takes its
    transverse share from the drift of the smallest eigenvalue k between
    rho(theta +- h), read from the spectra of ``stepped``: each is an exactly
    Hermitian combination of checked samples, convex on the table and, for a
    step past an end, on the line of the end segment. At d >= 3 that share is
    the qubit-style term of the smallest eigenvalue alone, not the sum of
    dlam_i^2 / lam_i.
    """
    if isinstance(curve, TransverseCurve):
        return np.zeros_like(total), _transverse_qfi(curve.k_at(thetas), curve.rate)
    if not isinstance(curve, TableCurve):
        return total, np.zeros_like(total)
    k = rho.eigenvalues[:, 0]
    hi, lo = np.split(eigh(stepped)[0][:, 0], 2)
    dk = (hi - lo) / (2 * h)
    ok = (0.0 < k) & (k <= 0.5)
    with np.errstate(invalid="ignore", divide="ignore"):
        transverse = np.where(ok, _transverse_qfi(k, dk), 0.0)
    return np.where(ok, np.maximum(total - transverse, 0.0), total), np.minimum(transverse, total)


class QubitQfi(NamedTuple):
    sphere: float
    transverse: float
    total: float


def _sphere_tensor(k: float, coord: complex, v: complex, v2: complex, chart: Chart = Chart.NORTH) -> complex:
    """The closed-form Fisher tensor on sphere tangents (v, v2) at (k, coord), arguments trusted; k = 0 is the pure family.

    ``coord`` is z in the north chart and w = 1/z in the south; the tangents are velocities dz in
    either. The factor (1 + |z|^2)^-2 is taken in the point's own chart: in the south it is
    |w|^4 / (1 + |w|^2)^2, formed as (|w| / hypot(1, |w|))^4, which underflows to 0 near the pole
    instead of overflowing where 1/w does, and overflows at no |w|.
    """
    coord, v, v2 = complex(coord), complex(v), complex(v2)
    kdiff = 2.0 * k - 1.0
    if chart is Chart.NORTH:
        pref = 4.0 * kdiff * kdiff / (1.0 + abs(coord) ** 2) ** 2
    else:
        pref = 4.0 * kdiff * kdiff * (abs(coord) / math.hypot(1.0, abs(coord))) ** 4
    ip = v.conjugate() * v2
    return pref * (ip.real + 1j * kdiff * ip.imag)


@finite_closed_form
def qfi_qubit_closed_form(k: float, dk: float, z: complex, v: complex) -> QubitQfi:
    """Closed-form qubit QFI split into sphere and transverse contributions.

    sphere = 4 (k1-k2)^2 |v|^2 / (1+|z|^2)^2, transverse = dk^2 / (k (1-k)).
    """
    require_mixing_weight(k)
    sphere = _sphere_tensor(k, z, v, v).real
    transverse = _transverse_qfi(k, dk)
    return QubitQfi(sphere, transverse, sphere + transverse)


def _transverse_tensor(k, dk1, dk2):
    return dk1 * dk2 / (k * (1.0 - k))


def _transverse_qfi(k, dk):
    return _transverse_tensor(k, dk, dk)


@finite_closed_form
def total_fisher_metric(
    k: float, z: complex, t1: tuple[float, complex], t2: tuple[float, complex]
) -> float:
    """Bilinear total Fisher metric on two tangents (dk, v) at (k, z).

    The diagonal t1 = t2 reproduces qfi_qubit_closed_form.total.
    """
    require_mixing_weight(k)
    dk1, v1 = t1
    dk2, v2 = t2
    return _transverse_tensor(k, dk1, dk2) + _sphere_tensor(k, z, v1, v2).real


@dataclass(frozen=True)
class FisherTensorValue:
    """Fisher tensor on an ordered tangent pair; sym/antisym split the value."""

    value: complex

    @property
    def sym(self) -> float:
        return self.value.real

    @property
    def antisym(self) -> float:
        return self.value.imag


@finite_closed_form
def fisher_tensor(k: float, coord: complex, v: complex, v2: complex, chart: Chart = Chart.NORTH) -> FisherTensorValue:
    """Closed-form Fisher tensor on sphere tangents (v, v2) at (k, coord): coord is z, or w = 1/z in the south chart; v, v2 are dz."""
    require_mixing_weight(k)
    return FisherTensorValue(_sphere_tensor(k, coord, v, v2, chart))


def fisher_tensor_general(rho: DensityOp, drho1, drho2) -> FisherTensorValue:
    """Fisher tensor Tr[rho L1 L2] on two matrix directions at rho."""
    drho = np.array([require_direction(d, rho.dim) for d in (drho1, drho2)])
    ell = sld_solve_stack(rho.stack, drho[None])
    return FisherTensorValue(complex(fisher_tensor_stack(rho.stack, ell)[0, 0, 1]))


@finite_closed_form
def pure_qdit_fisher(a: Sequence[complex], xi_outcomes: Sequence) -> tuple[float, float]:
    """Classical and quantum Fisher information for a pure d-level direction.

    ``a`` are the velocity coefficients in the adapted frame (a[0] pure
    imaginary); ``xi_outcomes`` the rank-one measurement vectors, which must
    satisfy the completeness relation sum_x xi_i(x)* xi_j(x) = delta_ij.
    """
    a = require_coefficients(a)
    d = a.shape[0]
    xis = [np.asarray(x, dtype=complex).reshape(-1) for x in xi_outcomes]
    for i, xi in enumerate(xis):
        if xi.shape[0] != d:
            raise DomainError(f"outcome {i} has dimension {xi.shape[0]}, expected {d}")
    gram = sum(np.outer(xi.conj(), xi) for xi in xis)
    defect = float(np.linalg.norm(gram - np.eye(d)))
    if defect > POVM_TOL:
        raise NotAPovm(f"outcome vectors violate completeness with defect {defect:.3e} > {POVM_TOL:g}")
    quantum = 4.0 * float(np.sum(np.abs(a[1:]) ** 2))
    classical = 0.0
    for xi in xis:
        if abs(xi[0]) ** 2 <= EPS_P:  # the outcome's probability
            continue
        s = complex(np.dot(xi[1:], a[1:].conj()))
        classical += (xi[0].conjugate() * s).real ** 2 / abs(xi[0]) ** 2
    classical *= 4.0
    return classical, quantum


@dataclass(frozen=True)
class WavefunctionGrid:
    """Discretized wavefunction family sqrt(p) e^{i alpha} on a uniform grid."""

    x: np.ndarray
    p: np.ndarray
    alpha: np.ndarray
    dp: np.ndarray
    dalpha: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("x", "p", "alpha", "dp", "dalpha"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if not np.all(np.isfinite(arr)):
                raise NotNormalized(f"grid field {name} contains non-finite values")
            arrays[name] = arr
        n = arrays["x"].shape[0]
        if n < 2:
            raise NotNormalized("grid needs at least 2 points")
        for name, arr in arrays.items():
            if arr.shape[0] != n:
                raise NotNormalized(f"grid field {name} has length {arr.shape[0]}, expected {n}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        steps = np.diff(arrays["x"])
        if np.any(steps <= 0) or np.abs(steps - steps[0]).max() > 1e-9 * abs(steps[0]):
            raise NotNormalized("grid points must be uniformly increasing")
        if np.any(arrays["p"] < -1e-15):
            raise NotNormalized("probabilities must be nonnegative")
        if abs(float(np.sum(arrays["p"])) * self.dx - 1.0) > 1e-9:
            raise NotNormalized("sum(p) * dx differs from 1 by more than 1e-9")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


@finite_closed_form
def wavefunction_fisher(grid: WavefunctionGrid) -> tuple[float, float]:
    """Classical and quantum Fisher information of a wavefunction grid.

    classical = sum p (d log p)^2 dx over p > eps;
    quantum = classical + sum p (d alpha)^2 dx - (sum p d alpha dx)^2.
    """
    dx = grid.dx
    mask = grid.p > EPS_P
    classical = float(np.sum(grid.dp[mask] ** 2 / grid.p[mask]) * dx)
    mean_dalpha = float(np.sum(grid.p * grid.dalpha) * dx)
    quantum = classical + float(np.sum(grid.p * grid.dalpha**2) * dx) - mean_dalpha**2
    return classical, quantum
