"""Parameter curves of density operators and symmetric logarithmic derivatives.

The SLD of a direction drho at rho is the Hermitian L solving
``drho = (rho L + L rho) / 2``; in rho's eigenbasis ``L_ij = 2 drho_ij /
(lam_i + lam_j)`` on the support. Closed forms for the mixed-qubit chart:

* sphere direction (fixed mixing, moving eigenvectors): L = 2 drho;
* transverse direction (fixed eigenvectors, moving mixing k): L =
  dk / ((1+|z|^2) k (1-k)) * [[|z|^2 - k(|z|^2+1), -z], [-z*, 1 - k(|z|^2+1)]].

Built-in curve families evaluate rho(theta) exactly; finite differences are
available for all families and are the only route for tabulated curves.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ChartSingularity,
    DimensionMismatch,
    DomainError,
    SupportMismatch,
    TableResolutionError,
)
from .linalg import (
    DensityOp,
    MAX_DIM,
    DensityStack,
    as_stack,
    dagger,
    frobenius_norms,
    herm_eigen,
    require_hermitian,
    traces,
)
from .states import (
    Chart,
    PureState,
    QubitPoint,
    pure_projector_stack,
    require_finite_coords,
    require_mixing_weight,
    require_normalized,
    rho_of_kz_stack,
    unitary_of_z,
)

ANALYTIC = "analytic"
FD = "fd"
DEFAULT_FD_STEP = 1e-5

#: Minimum eigenvalue keeping a rank-2 family at constant rank.
RANK_GUARD = 1e-9
#: Eigenvalue pairs with lam_i + lam_j at or below this are outside rho's support.
SUPPORT_CUTOFF = 1e-12
#: Largest |drho_ij| tolerated on an eigenvalue pair outside the support.
SUPPORT_LEAK_TOL = 1e-10
#: Largest |Tr drho| / max(1, ||drho||_F) of a valid direction.
DRHO_TRACE_TOL = 1e-10


def _thetas(theta) -> np.ndarray:
    """One parameter value as the one-row theta vector of the stacked methods."""
    return np.array([float(theta)])


def _guard_rank2(k, thetas: np.ndarray):
    k = np.asarray(k)
    bad = ~((RANK_GUARD <= k) & (k <= 0.5))
    if bad.any():
        i = int(np.argmax(np.broadcast_to(bad, thetas.shape)))
        theta, k = float(thetas[i]), float(np.broadcast_to(k, thetas.shape)[i])
        raise DomainError(
            f"mixing weight k(theta={theta!r}) = {k!r} leaves [{RANK_GUARD}, 1/2]; "
            "rank-2 curves must keep their rank"
        )


class _StackedCurve:
    """Base of the curve families, which evaluate a vector of thetas at once.

    ``rho_stack`` gives the DensityStack of rho(theta) and ``drho_stack`` the
    exact derivatives as an (n, d, d) array. The one-theta methods (these two,
    and ``point_at`` or ``state_at``) are their one-row case.
    """

    def rho_at(self, theta: float) -> DensityOp:
        return self.rho_stack(_thetas(theta))[0]

    def drho_analytic(self, theta: float) -> np.ndarray:
        return self.drho_stack(_thetas(theta))[0]


@dataclass(frozen=True)
class GreatCirclePure(_StackedCurve):
    """Pure qubit great circle psi(theta) = (cos(theta/2), e^{i phase} sin(theta/2))."""

    phase: float = 0.0

    def _amplitudes(self, thetas: np.ndarray) -> np.ndarray:
        half = thetas / 2.0
        amps = np.stack([np.cos(half), cmath.exp(1j * self.phase) * np.sin(half)], axis=1)
        return require_normalized(amps)

    def state_at(self, theta: float) -> PureState:
        return PureState(self._amplitudes(_thetas(theta))[0])

    def rho_stack(self, thetas: np.ndarray) -> DensityStack:
        return pure_projector_stack(self._amplitudes(thetas))

    def drho_stack(self, thetas: np.ndarray) -> np.ndarray:
        half = thetas / 2.0
        psi = self._amplitudes(thetas)
        dpsi = 0.5 * np.stack([-np.sin(half), cmath.exp(1j * self.phase) * np.cos(half)], axis=1)
        return dpsi[:, :, None] * psi.conj()[:, None, :] + psi[:, :, None] * dpsi.conj()[:, None, :]


@dataclass(frozen=True)
class SphereCurve(_StackedCurve):
    """Fixed mixing k, stereographic path z(theta) = z0 + velocity * theta."""

    k: float
    z0: complex = 0j
    velocity: complex = 0j

    def __post_init__(self):
        require_mixing_weight(self.k)

    def _coords(self, thetas: np.ndarray) -> np.ndarray:
        _guard_rank2(self.k, thetas)
        return require_finite_coords(self.z0 + self.velocity * thetas)

    def point_at(self, theta: float) -> QubitPoint:
        return QubitPoint(self.k, complex(self._coords(_thetas(theta))[0]))

    def rho_stack(self, thetas: np.ndarray) -> DensityStack:
        return rho_of_kz_stack(self.k, self._coords(thetas), Chart.NORTH)

    def drho_stack(self, thetas: np.ndarray) -> np.ndarray:
        return _drho_sphere(2.0 * self.k - 1.0, self._coords(thetas), self.velocity)


@dataclass(frozen=True)
class TransverseCurve(_StackedCurve):
    """Mixing path k(theta) = k0 + rate * theta at a fixed sphere point.

    ``z=None`` places the curve at the infinity pole, where rho(theta) is the
    diagonal matrix diag(k, 1-k).
    """

    k0: float
    rate: float = 1.0
    z: complex | None = None

    def k_at(self, theta):
        """k at one theta or at each of an array of thetas."""
        return self.k0 + self.rate * theta

    def _weights(self, thetas: np.ndarray) -> np.ndarray:
        k = self.k_at(thetas)
        _guard_rank2(k, thetas)
        return k

    def _chart_points(self, thetas: np.ndarray):
        k = self._weights(thetas)
        if self.z is None:
            return k, np.zeros(len(thetas), dtype=complex), Chart.SOUTH
        return k, require_finite_coords(np.full(len(thetas), complex(self.z))), Chart.NORTH

    def point_at(self, theta: float) -> QubitPoint:
        k, coord, chart = self._chart_points(_thetas(theta))
        return QubitPoint(float(k[0]), complex(coord[0]), chart)

    def rho_stack(self, thetas: np.ndarray) -> DensityStack:
        return rho_of_kz_stack(*self._chart_points(thetas))

    def drho_stack(self, thetas: np.ndarray) -> np.ndarray:
        self._weights(thetas)
        drho = self.rate * _transverse_direction(self.z)
        return np.broadcast_to(drho, (len(thetas), 2, 2)).copy()


@dataclass(frozen=True)
class PureQditCoeffs(_StackedCurve):
    """Pure d-level curve with prescribed velocity coefficients at theta = 0.

    In the adapted frame psi(0) = e1 and dpsi(0) = sum_i a_i e_i with a_1 pure
    imaginary; the curve is the unitary flow psi(theta) = exp(theta A) e1 for
    the anti-Hermitian generator A with A e1 = dpsi(0).
    """

    a: tuple[complex, ...]

    def __post_init__(self):
        a = tuple(complex(x) for x in self.a)
        if len(a) < 2:
            raise DomainError("coefficient vector needs dimension >= 2")
        if len(a) > MAX_DIM:
            raise DimensionMismatch(f"dimension {len(a)} exceeds supported maximum {MAX_DIM}")
        if abs(a[0].real) > 1e-12:
            raise DomainError(f"a[0] = {a[0]!r} must be pure imaginary")
        object.__setattr__(self, "a", a)

    @cached_property
    def _generator(self) -> np.ndarray:
        d = len(self.a)
        gen = np.zeros((d, d), dtype=complex)
        gen[0, 0] = 1j * self.a[0].imag
        for i in range(1, d):
            gen[i, 0] = self.a[i]
            gen[0, i] = -self.a[i].conjugate()
        return gen

    @cached_property
    def _flow_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        return herm_eigen(1j * self._generator)  # 1j * A is Hermitian

    def _amplitudes(self, thetas: np.ndarray) -> np.ndarray:
        w, v = self._flow_eigen
        u = (v * np.exp(-1j * thetas[:, None] * w)[:, None, :]) @ v.conj().T
        return require_normalized(u[:, :, 0])

    def state_at(self, theta: float) -> PureState:
        return PureState(self._amplitudes(_thetas(theta))[0])

    def rho_stack(self, thetas: np.ndarray) -> DensityStack:
        return pure_projector_stack(self._amplitudes(thetas))

    def drho_stack(self, thetas: np.ndarray) -> np.ndarray:
        rho = self.rho_stack(thetas).matrices
        gen = self._generator
        return gen @ rho - rho @ gen


@dataclass(frozen=True)
class TableCurve(_StackedCurve):
    """Curve tabulated as (theta_j, rho_j) samples; evaluated by linear interpolation."""

    thetas: tuple[float, ...]
    rhos: tuple

    def __post_init__(self):
        if len(self.thetas) != len(self.rhos):
            raise DomainError("table thetas and rhos differ in length")
        if len(self.thetas) >= 2 and not all(
            b > a for a, b in zip(self.thetas, self.thetas[1:])
        ):
            raise DomainError("table thetas must be strictly increasing")
        if self.rhos:
            self._samples  # checks the samples' shape and dimension on construction

    @cached_property
    def _samples(self) -> np.ndarray:
        try:
            return as_stack(self.rhos)
        except ValueError:
            raise DimensionMismatch("table samples differ in dimension") from None

    def rho_stack(self, thetas: np.ndarray) -> DensityStack:
        ts = self.thetas
        if len(ts) < 2:
            raise TableResolutionError("tabulated curve needs at least 2 samples")
        outside = ~((ts[0] <= thetas) & (thetas <= ts[-1]))
        if outside.any():
            theta = float(thetas[int(np.argmax(outside))])
            raise TableResolutionError(
                f"theta={theta!r} outside the tabulated range [{ts[0]}, {ts[-1]}]"
            )
        knots = np.asarray(ts)
        j = np.minimum(np.searchsorted(knots, thetas, side="right") - 1, len(ts) - 2)
        frac = ((thetas - knots[j]) / (knots[j + 1] - knots[j]))[:, None, None]
        samples = self._samples
        return DensityStack((1.0 - frac) * samples[j] + frac * samples[j + 1])

    def drho_stack(self, thetas: np.ndarray) -> np.ndarray:
        raise TableResolutionError("tabulated curves support finite-difference derivatives only")


Curve = GreatCirclePure | SphereCurve | TransverseCurve | PureQditCoeffs | TableCurve


def differentiate_stack(
    curve, thetas: np.ndarray, mode: str = ANALYTIC, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """d rho / d theta at each of a vector of thetas, closed-form or central finite difference.

    Returns an (n, d, d) stack of exactly Hermitian, traceless matrices.
    """
    if mode == ANALYTIC:
        drho = curve.drho_stack(thetas)
    elif mode == FD:
        if not (h > 0):
            raise DomainError(f"finite-difference step h={h!r} must be positive")
        drho = (curve.rho_stack(thetas + h).matrices - curve.rho_stack(thetas - h).matrices) / (2 * h)
    else:
        raise DomainError(f"unknown differentiation mode {mode!r}")
    drho = (drho + dagger(drho)) / 2
    # the FD trace residue is pure roundoff of unit traces and grows like eps/h
    tol = 1e-12 if mode == ANALYTIC else 1e-10 * max(1.0, DEFAULT_FD_STEP / h)
    trace = traces(drho)
    bad = np.abs(trace) > tol * np.maximum(1.0, frobenius_norms(drho))
    if bad.any():
        residue = complex(trace[int(np.argmax(bad))])
        raise DomainError(f"drho trace {residue!r} is not negligible; curve is not trace preserving")
    dim = drho.shape[1]
    return drho - (trace.real / dim)[:, None, None] * np.eye(dim)


def differentiate_curve(curve, theta: float, mode: str = ANALYTIC, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """d rho / d theta along a curve, closed-form or central finite difference."""
    return differentiate_stack(curve, _thetas(theta), mode, h)[0]


def require_direction(drho, dim: int) -> np.ndarray:
    """The one check of a caller's drho at a dim-dimensional rho; returns it exactly symmetrized.

    A valid drho is a finite square matrix, Hermitian within HERMITIAN_RTOL,
    of dimension ``dim`` and traceless within DRHO_TRACE_TOL * max(1, ||drho||_F).
    """
    drho = require_hermitian(drho)
    if drho.shape[0] != dim:
        raise DomainError(f"drho dimension {drho.shape[0]} does not match rho dimension {dim}")
    if abs(np.trace(drho)) > DRHO_TRACE_TOL * max(1.0, float(np.linalg.norm(drho))):
        raise DomainError("drho must be traceless")
    return drho


def sld_solve_stack(rho: DensityStack, drho: np.ndarray) -> np.ndarray:
    """Solve drho = (rho L + L rho)/2 for Hermitian L, row by row over a stack.

    Trusts ``drho`` to be valid row by row (see ``require_direction``), as
    ``differentiate_stack`` returns it. In each rho's eigenbasis L_ij = 2 drho_ij /
    (lam_i + lam_j) on the support. Entries over eigenvalue pairs outside the
    support are set to 0 when drho vanishes there too; otherwise the direction
    leaves the support and SupportMismatch is raised.
    """
    w, v = rho.eigenvalues, rho.eigenvectors
    vh = dagger(v)
    dr = vh @ drho @ v
    denom = w[:, :, None] + w[:, None, :]
    support = denom > SUPPORT_CUTOFF
    leak = ~support & (np.abs(dr) > SUPPORT_LEAK_TOL)
    if leak.any():
        weight = abs(dr[tuple(np.argwhere(leak)[0])])
        raise SupportMismatch(f"drho has weight {weight:.3e} outside the support of rho")
    ell = np.divide(2.0 * dr, denom, out=np.zeros_like(dr), where=support)
    out = v @ ell @ vh
    return (out + dagger(out)) / 2


def sld_solve(rho: DensityOp, drho) -> np.ndarray:
    """Solve drho = (rho L + L rho)/2 for Hermitian L in rho's eigenbasis (see ``sld_solve_stack``)."""
    return sld_solve_stack(rho.stack, require_direction(drho, rho.dim)[None])[0]


def sld_transverse(k: float, dk: float, z: complex) -> np.ndarray:
    """Closed-form SLD of the transverse (mixing-weight) direction at (k, z)."""
    require_mixing_weight(k)
    z = complex(z)
    az2 = abs(z) ** 2
    pref = dk / ((1.0 + az2) * k * (1.0 - k))
    return pref * np.array(
        [[az2 - k * (az2 + 1.0), -z], [-z.conjugate(), 1.0 - k * (az2 + 1.0)]],
        dtype=complex,
    )


def _drho_sphere(kdiff: float, z: np.ndarray, v: complex) -> np.ndarray:
    """Sphere-direction drho at each point of the coordinate array z, for one velocity v."""
    v = complex(v)
    zc, vc = z.conj(), v.conjugate()
    out = np.empty((len(z), 2, 2), dtype=complex)
    out[:, 0, 0] = zc * v + z * vc
    out[:, 0, 1] = z * z * vc - v
    out[:, 1, 0] = zc * zc * v - vc
    out[:, 1, 1] = -(zc * v + z * vc)
    return (kdiff / (1.0 + np.abs(z) ** 2) ** 2)[:, None, None] * out


def drho_sphere(k: float, z: complex, v: complex) -> np.ndarray:
    """Sphere-direction drho at mixing k, point z, stereographic velocity v."""
    require_mixing_weight(k)
    return _drho_sphere(2.0 * k - 1.0, np.array([complex(z)]), v)[0]


def drho_sphere_pure(z: complex, v: complex) -> np.ndarray:
    """Sphere-direction drho of the pure projector family (the k -> 0 limit)."""
    return _drho_sphere(-1.0, np.array([complex(z)]), v)[0]


def _transverse_direction(z: complex | None) -> np.ndarray:
    """Unit transverse drho U(z) diag(1, -1) U(z)^dag; diag(1, -1) at the infinity pole z = None."""
    diag = np.diag([1.0, -1.0]).astype(complex)
    if z is None:
        return diag
    u = unitary_of_z(z)
    return u @ diag @ u.conj().T


def drho_transverse(k: float, dk: float, z: complex) -> np.ndarray:
    """Transverse drho: dk * U(z) diag(1, -1) U(z)^dag."""
    require_mixing_weight(k)
    return dk * _transverse_direction(complex(z))


def connection_coefficient(z: complex) -> complex:
    """Chart coefficient lambda = e^{-2i chi} / (1 + |z|^2), with chi := 0 at z = 0."""
    z = complex(z)
    chi = cmath.phase(z) if z != 0 else 0.0
    return cmath.exp(-2j * chi) / (1.0 + abs(z) ** 2)


def sphere_tangent_matrix(k: float, z: complex, v: complex) -> np.ndarray:
    """Reference-frame matrix tangent (k1-k2) [[0, v* lam*], [v lam, 0]]."""
    require_mixing_weight(k)
    lv = connection_coefficient(z) * complex(v)
    return (2.0 * k - 1.0) * np.array([[0.0, lv.conjugate()], [lv, 0.0]], dtype=complex)


def assemble_drho(k: float, z: complex, dk: float, v: complex) -> np.ndarray:
    """Full qubit drho for the combined tangent (dk, v) at (k, z)."""
    return TangentDir(QubitPoint(k, z), dk, v).drho


@dataclass(frozen=True)
class TangentDir:
    """Tangent (dk, v) at a chart point, with its matrix representations.

    ``drho`` is the full direction (sphere + transverse); ``generator`` is the
    Hermitian K with -i[K, rho] equal to the sphere part; ``xtilde0`` is the
    reference-frame matrix tangent (k1-k2) [[0, v* lam*], [v lam, 0]].
    """

    point: QubitPoint
    dk: float = 0.0
    v: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "v", complex(self.v))
        if self.point.at_infinity and self.v != 0:
            raise ChartSingularity(
                "sphere velocity is chart-undefined at the infinity pole; use the north chart"
            )

    @property
    def _z(self) -> complex:
        return 0j if self.point.at_infinity else self.point.z

    @cached_property
    def drho_sphere_part(self) -> np.ndarray:
        return drho_sphere(self.point.k, self._z, self.v)

    @cached_property
    def drho_transverse_part(self) -> np.ndarray:
        return self.dk * _transverse_direction(None if self.point.at_infinity else self.point.z)

    @cached_property
    def drho(self) -> np.ndarray:
        return self.drho_sphere_part + self.drho_transverse_part

    @cached_property
    def lam(self) -> complex:
        return connection_coefficient(self._z)

    @cached_property
    def xtilde0(self) -> np.ndarray:
        return sphere_tangent_matrix(self.point.k, self._z, self.v)

    @cached_property
    def xtilde(self) -> np.ndarray:
        u = unitary_of_z(self._z)
        return u @ self.xtilde0 @ u.conj().T

    @cached_property
    def generator(self) -> np.ndarray:
        lv = self.lam * self.v
        k0 = 1j * np.array([[0.0, -lv.conjugate()], [lv, 0.0]], dtype=complex)
        u = unitary_of_z(self._z)
        return u @ k0 @ u.conj().T
