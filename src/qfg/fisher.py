"""Classical and quantum Fisher information and the full Fisher tensor.

Classical Fisher information of a POVM {m_x}:

    i = sum_{x: p_x > eps} (Tr[drho m_x])^2 / Tr[rho m_x],   p_x = Tr[rho m_x],

with eps = 1e-12 realizing the restriction to outcomes of positive
probability. Quantum Fisher information is Tr[rho L^2] for the SLD L, an
upper bound on i for every POVM.

The Fisher tensor evaluated on a pair of tangent directions is the complex
number Tr[rho L1 L2]; its real part is the metric (Fubini-Study type) and its
imaginary part the antisymmetric (KKS type) form. On a qubit sphere tangent
pair (v, v') it reduces to

    4 (k1-k2)^2 / (1+|z|^2)^2 * [ (k1+k2) Re(v* v') + i (k1-k2) Im(v* v') ].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidPovm, NotAPovm, NotNormalized, QfgError
from .linalg import (
    PSD_EIGENVALUE_FLOOR,
    DensityOp,
    DensityStack,
    _square,
    eigh,
    hermitian_part,
    traces,
)
from .sld import TableCurve, TransverseCurve, assemble_drho, require_direction, sld_solve  # noqa: F401  (re-export)
from .states import require_mixing_weight

#: Outcomes with probability at or below this are excluded from classical sums.
EPS_P = 1e-12


def _povm_stack(elements: Sequence) -> tuple[np.ndarray | None, str | None]:
    """The exactly Hermitian (m, d, d) stack of a POVM's elements, or None and its first defect."""
    if len(elements) == 0:
        return None, "POVM has no elements"
    try:
        mats = [_square(m) for m in elements]
    except (DimensionMismatch, TypeError, ValueError) as exc:
        return None, f"element is not Hermitian: {exc}"
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            return None, f"element {i} has dimension {m.shape[0]}, expected {dim}"
    try:
        stack = hermitian_part(np.array(mats))
    except QfgError as exc:
        return None, f"element is not Hermitian: {exc}"
    low = eigh(stack)[0][:, 0]
    bad = low < PSD_EIGENVALUE_FLOOR
    if bad.any():
        i = int(np.argmax(bad))
        return None, f"element {i} has negative eigenvalue {low[i]:.3e}"
    defect = float(np.linalg.norm(stack.sum(axis=0) - np.eye(dim)))
    if defect > 1e-9:
        return None, f"elements sum to identity with defect {defect:.3e} > 1e-9"
    return stack, None


def povm_diagnose(elements: Sequence) -> str | None:
    """Return a defect description for an operator family, or None if it is a POVM."""
    return _povm_stack(elements)[1]


class Povm:
    """Finite POVM: PSD elements summing to the identity within 1e-9."""

    def __init__(self, elements: Sequence):
        stack, defect = _povm_stack(elements)
        if defect is not None:
            raise InvalidPovm(defect)
        self._set(stack)

    @classmethod
    def of_projectors(cls, projectors: np.ndarray) -> "Povm":
        """A POVM from Hermitian rank-one projectors known to resolve the identity, unchecked."""
        povm = cls.__new__(cls)
        povm._set(projectors)
        return povm

    def _set(self, stack: np.ndarray):
        stack.setflags(write=False)
        self.stack = stack
        self._elements = tuple(stack)

    @property
    def elements(self) -> tuple:
        return self._elements

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __repr__(self) -> str:
        return f"Povm({len(self)} outcomes, dim={self.dim})"


def classical_fisher_stack(rho: DensityStack, drho: np.ndarray, outcomes) -> np.ndarray:
    """Classical Fisher information of each row of (rho, drho) stacks.

    Trusts ``drho`` to be valid row by row (see ``require_direction``).
    ``outcomes`` yields one POVM element per outcome: an (n, d, d) stack with
    the element of each row, or a (1, d, d) one that measures every row alike.
    """
    total = np.zeros(len(drho))
    for m in outcomes:
        if m.shape[-1] != rho.dim:
            raise DomainError(f"POVM dimension {m.shape[-1]} does not match rho dimension {rho.dim}")
        p = traces(rho.matrices @ m).real
        dp = traces(drho @ m).real
        total = total + np.divide(dp * dp, p, out=np.zeros_like(p), where=p > EPS_P)
    return total


def classical_fisher(rho: DensityOp, drho, povm: Povm) -> float:
    """Classical Fisher information of the POVM at (rho, drho)."""
    drho = require_direction(drho, rho.dim)
    return float(classical_fisher_stack(rho.stack, drho[None], povm.stack[:, None])[0])


def quantum_fisher_of_sld(rho: DensityStack, ell: np.ndarray) -> np.ndarray:
    """Quantum Fisher information Tr[rho L^2] of each row, from the SLD stack ``ell``."""
    return np.maximum(traces(rho.matrices @ ell @ ell).real, 0.0)


def quantum_fisher(rho: DensityOp, drho) -> float:
    """Quantum Fisher information Tr[rho L^2]."""
    return float(quantum_fisher_of_sld(rho.stack, sld_solve(rho, drho)[None])[0])


def qfi_split(curve, rho: DensityStack, thetas: np.ndarray, h: float, total: np.ndarray):
    """Split each QFI value along a curve into (sphere, transverse) parts, given rho(theta).

    Transverse curves are all transverse (the closed form dk^2 / (k (1-k))),
    tabulated curves take the transverse share from the drift of the smallest
    eigenvalue k over theta +- h, the step their finite-difference drho used
    (none where k is not in (0, 1/2]), and every other family is all sphere.
    """
    if isinstance(curve, TransverseCurve):
        return np.zeros_like(total), _transverse_qfi(curve.k_at(thetas), curve.rate)
    if not isinstance(curve, TableCurve):
        return total, np.zeros_like(total)
    k = rho.eigenvalues[:, 0]
    hi, lo = (curve.rho_stack(thetas + step).eigenvalues[:, 0] for step in (h, -h))
    dk = (hi - lo) / (2 * h)
    ok = (0.0 < k) & (k <= 0.5)
    with np.errstate(invalid="ignore", divide="ignore"):
        transverse = np.where(ok, _transverse_qfi(k, dk), 0.0)
    return np.where(ok, np.maximum(total - transverse, 0.0), total), np.minimum(transverse, total)


class QubitQfi(NamedTuple):
    sphere: float
    transverse: float
    total: float


def qfi_qubit_closed_form(k: float, dk: float, z: complex, v: complex) -> QubitQfi:
    """Closed-form qubit QFI split into sphere and transverse contributions.

    sphere = 4 (k1-k2)^2 |v|^2 / (1+|z|^2)^2, transverse = dk^2 / (k (1-k)).
    """
    require_mixing_weight(k)
    z = complex(z)
    v = complex(v)
    kdiff = 2.0 * k - 1.0
    sphere = 4.0 * kdiff * kdiff * abs(v) ** 2 / (1.0 + abs(z) ** 2) ** 2
    transverse = _transverse_qfi(k, dk)
    return QubitQfi(sphere, transverse, sphere + transverse)


def _transverse_qfi(k, dk):
    return dk * dk / (k * (1.0 - k))


def total_fisher_metric(
    k: float, z: complex, t1: tuple[float, complex], t2: tuple[float, complex]
) -> float:
    """Bilinear total Fisher metric on two tangents (dk, v) at (k, z).

    The diagonal t1 = t2 reproduces qfi_qubit_closed_form.total.
    """
    require_mixing_weight(k)
    dk1, v1 = t1
    dk2, v2 = t2
    kdiff = 2.0 * k - 1.0
    sphere = 4.0 * kdiff * kdiff * (complex(v1).conjugate() * complex(v2)).real
    sphere /= (1.0 + abs(complex(z)) ** 2) ** 2
    return dk1 * dk2 / (k * (1.0 - k)) + sphere


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


def fisher_tensor(k: float, z: complex, v: complex, v2: complex) -> FisherTensorValue:
    """Closed-form Fisher tensor on sphere tangents (v, v2) at (k, z)."""
    require_mixing_weight(k)
    z = complex(z)
    kdiff = 2.0 * k - 1.0
    pref = 4.0 * kdiff * kdiff / (1.0 + abs(z) ** 2) ** 2
    ip = complex(v).conjugate() * complex(v2)
    return FisherTensorValue(pref * (ip.real + 1j * kdiff * ip.imag))


def fisher_tensor_general(rho: DensityOp, drho1, drho2) -> FisherTensorValue:
    """Fisher tensor Tr[rho L1 L2] on two matrix directions at rho."""
    ell1 = sld_solve(rho, drho1)
    ell2 = sld_solve(rho, drho2)
    return FisherTensorValue(complex(np.trace(rho.matrix @ ell1 @ ell2)))


def pure_qdit_fisher(a: Sequence[complex], xi_outcomes: Sequence) -> tuple[float, float]:
    """Classical and quantum Fisher information for a pure d-level direction.

    ``a`` are the velocity coefficients in the adapted frame (a[0] pure
    imaginary); ``xi_outcomes`` the rank-one measurement vectors, which must
    satisfy the completeness relation sum_x xi_i(x)* xi_j(x) = delta_ij.
    """
    a = np.asarray([complex(x) for x in a])
    if abs(a[0].real) > 1e-12:
        raise DomainError(f"a[0] = {a[0]!r} must be pure imaginary")
    d = a.shape[0]
    xis = [np.asarray(x, dtype=complex).reshape(-1) for x in xi_outcomes]
    for i, xi in enumerate(xis):
        if xi.shape[0] != d:
            raise DomainError(f"outcome {i} has dimension {xi.shape[0]}, expected {d}")
    gram = sum(np.outer(xi.conj(), xi) for xi in xis)
    defect = float(np.abs(gram - np.eye(d)).max())
    if defect > 1e-9:
        raise NotAPovm(f"outcome vectors violate completeness with defect {defect:.3e} > 1e-9")
    quantum = 4.0 * float(np.sum(np.abs(a[1:]) ** 2))
    classical = 0.0
    for xi in xis:
        if abs(xi[0]) <= 1e-12:
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
