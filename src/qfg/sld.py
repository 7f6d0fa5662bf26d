"""Parameter curves of density operators and symmetric logarithmic derivatives.

The SLD of a direction drho at rho is the Hermitian L solving
``drho = (rho L + L rho) / 2``; in rho's eigenbasis ``L_ij = 2 drho_ij /
(lam_i + lam_j)`` on the support. Closed forms for the mixed-qubit chart:

* sphere direction (fixed mixing, moving eigenvectors): L = 2 drho;
* transverse direction (fixed eigenvectors, moving mixing k): L =
  dk / ((1+|z|^2) k (1-k)) * [[|z|^2 - k(|z|^2+1), -z], [-z*, 1 - k(|z|^2+1)]].

Built-in curve families evaluate rho(theta) and drho exactly; finite
differences are available for all families.
Every pure family is one closed-form flow, ``PureQditCoeffs``, a turned great
circle; ``GreatCirclePure`` is its d = 2 case.

A curve gives matrices: ``rho_matrices`` runs the family's own guards and
returns rho(theta) unchecked; a walk checks them where a state is used.
A pure flow's walk builds its states from the amplitudes
(``states.pure_projector_stack``), so their eigenpairs are the Householder
lift of psi, not an eigensolve; a sphere or transverse curve's from its chart
points (``states.chart_states``): the eigenvalues (k, 1 - k) and the columns of
U. Only a table's states are solved by ``eigh``.
Every drho comes from one place, ``walk_curve``: one evaluation of the
family's formula at theta and, where a stage reads them, at theta + h and
theta - h gives the checked states, drho and the matrices of a table's QFI
split. The exact derivative is the family's ``drho_stack`` (a pure flow's is
A rho - rho A of the checked states themselves); a finite difference takes
the matrices at theta +- h and builds no state: a closed form is a state by
construction, and a table's samples are checked once, when it is built, so
each interpolated matrix mixes checked states. ``differentiate_curve`` is one
row of the walk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    SupportMismatch,
    TableResolutionError,
    finite_closed_form,
)
from .linalg import (
    DensityOp,
    MAX_DIM,
    DensityStack,
    _dagger_copy,
    _reduce_rows,
    as_stack,
    congruence,
    dagger,
    frobenius_norms,
    matmul,
    rank_one_projectors,
    require_hermitian,
    traces,
)
from .states import (
    Chart,
    PureState,
    QubitPoint,
    chart_matrices,
    chart_states,
    pure_projector_stack,
    require_finite_coords,
    require_mixing_weight,
    require_normalized,
)

ANALYTIC = "analytic"
FD = "fd"
DEFAULT_FD_STEP = 1e-5

#: Minimum eigenvalue keeping a rank-2 family at constant rank.
RANK_GUARD = 1e-9
#: Eigenvalue pairs with lam_i + lam_j at or below this are outside rho's support.
SUPPORT_CUTOFF = 1e-12
#: Largest |drho_ij| / max(1, ||drho||_F) tolerated on an eigenvalue pair outside the support.
SUPPORT_LEAK_TOL = 1e-10
#: Largest |Tr drho| / max(1, ||drho||_F) of a valid direction.
DRHO_TRACE_TOL = 1e-10


def _thetas(theta) -> np.ndarray:
    """One parameter value as the one-row theta vector of the stacked methods."""
    return np.array([float(theta)])


def _guard_rank2(k, thetas: np.ndarray):
    k = np.broadcast_to(k, thetas.shape)
    bad = ~((RANK_GUARD <= k) & (k <= 0.5))
    if bad.any():
        i = int(np.argmax(bad))
        theta, k = float(thetas[i]), float(k[i])
        raise DomainError(
            f"mixing weight k(theta={theta!r}) = {k!r} leaves [{RANK_GUARD}, 1/2]; "
            "rank-2 curves must keep their rank"
        )


_NO_THETAS = np.empty(0)


class _StackedCurve:
    """Base of the curve families, which evaluate a vector of thetas at once.

    Each family defines ``rho_matrices``, its unchecked (n, d, d) matrices of
    rho(theta), and ``drho_stack(thetas, rho)``, the exact derivatives, where
    ``rho`` holds the matrices rho(thetas) that the walk already made; only a
    pure flow reads them. ``walk`` evaluates the family's formula once at the
    thetas of the states and at further thetas: it checks the states'
    matrices as one DensityStack (``_states``: a chart curve's with the
    eigenpairs of its chart points, a pure flow's with those of its
    amplitudes) and returns the other matrices unchecked; ``rho_stack`` is its
    walk with no further theta. The one-theta methods (``rho_at``,
    ``point_at``, ``state_at``) are their one-row case.
    """

    @property
    def dim(self) -> int:
        """The dimension d of rho(theta), read from the (0, d, d) matrices of no theta."""
        return self.rho_matrices(_NO_THETAS).shape[-1]

    def walk(self, thetas: np.ndarray, steps: np.ndarray) -> tuple[DensityStack, np.ndarray]:
        """The checked states rho(thetas) and the unchecked matrices rho(steps), from one evaluation at both.

        With no steps, the matrices of no step are a new (0, d, d) array: an
        empty view of the walk's matrices would keep them all alive.
        """
        m = self.rho_matrices(np.concatenate([thetas, steps]))
        rest = m[len(thetas) :] if len(steps) else m[:0].copy()
        return self._states(thetas, m[: len(thetas)]), rest

    def _states(self, thetas: np.ndarray, m: np.ndarray) -> DensityStack:
        """The checked states of the matrices m = rho(thetas)."""
        return DensityStack(m)

    def rho_stack(self, thetas: np.ndarray) -> DensityStack:
        return self.walk(thetas, _NO_THETAS)[0]

    def rho_at(self, theta: float) -> DensityOp:
        return self.rho_stack(_thetas(theta))[0]


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

    def rho_matrices(self, thetas: np.ndarray) -> np.ndarray:
        return chart_matrices(self.k, 1.0 - self.k, self._coords(thetas), Chart.NORTH)

    def _states(self, thetas: np.ndarray, m: np.ndarray) -> DensityStack:
        # the coordinates that rho_matrices checked
        return chart_states(m, self.k, self.z0 + self.velocity * thetas, Chart.NORTH)

    def drho_stack(self, thetas: np.ndarray, rho: np.ndarray) -> np.ndarray:
        return _sphere_drho_stack(self.k, self._coords(thetas), self.velocity)


@dataclass(frozen=True)
class TransverseCurve(_StackedCurve):
    """Mixing path k(theta) = k0 + rate * theta at a fixed sphere point (coord, chart), held as QubitPoint holds it.

    The default, the south-chart origin, is the z = infinity pole, where
    rho(theta) = diag(k, 1-k); d rho / d theta is rate times the (1, -1) chart matrix.
    """

    k0: float
    rate: float = 1.0
    coord: complex = 0j
    chart: Chart = Chart.SOUTH

    def k_at(self, theta):
        """k at one theta or at each of an array of thetas."""
        return self.k0 + self.rate * theta

    def _weights(self, thetas: np.ndarray) -> np.ndarray:
        k = self.k_at(thetas)
        _guard_rank2(k, thetas)
        return k

    def point_at(self, theta: float) -> QubitPoint:
        return QubitPoint(float(self._weights(_thetas(theta))[0]), self.coord, self.chart)

    def rho_matrices(self, thetas: np.ndarray) -> np.ndarray:
        k = self._weights(thetas)  # n weights at one point
        return chart_matrices(k, 1.0 - k, np.array([self.coord], dtype=complex), self.chart)

    def _states(self, thetas: np.ndarray, m: np.ndarray) -> DensityStack:
        # the weights that rho_matrices checked
        return chart_states(m, self.k_at(thetas), np.array([self.coord], dtype=complex), self.chart)

    def drho_stack(self, thetas: np.ndarray, rho: np.ndarray) -> np.ndarray:
        unit = chart_matrices(1.0, -1.0, np.array([self.coord], dtype=complex), self.chart)  # the same at every theta
        return np.broadcast_to(self.rate * unit, (len(thetas), 2, 2))


def require_coefficients(a) -> np.ndarray:
    """Check pure d-level velocity coefficients: finite, d >= 2 and a[0] pure imaginary within 1e-12."""
    a = np.array([complex(x) for x in a], dtype=complex)
    if len(a) < 2:
        raise DomainError("coefficient vector needs dimension >= 2")
    if not np.isfinite(a).all():
        raise DomainError("velocity coefficients must be finite")
    if abs(a[0].real) > 1e-12:
        raise DomainError(f"a[0] = {complex(a[0])!r} must be pure imaginary")
    return a


@dataclass(frozen=True)
class PureQditCoeffs(_StackedCurve):
    """Pure d-level curve with prescribed velocity coefficients at theta = 0.

    In the adapted frame psi(0) = e1 and dpsi(0) = a = (i b, a'); the curve is the
    flow psi(theta) = exp(theta A) e1, A anti-Hermitian with A e1 = a: the great
    circle through e1 and a' turned by the phase b. With w = sqrt(b^2 + 4 |a'|^2),
    psi = e^{i b theta/2} [(cos(w theta/2) + i (b/w) sin(w theta/2)) e1 + (2/w) sin(w theta/2) a'],
    O(d) per theta; drho = A rho - rho A of the matrices rho(theta), exactly 0 on
    a phase-only flow (a' = 0).
    """

    a: tuple[complex, ...]

    def __post_init__(self):
        a = tuple(complex(x) for x in require_coefficients(self.a))
        if len(a) > MAX_DIM:
            raise DimensionMismatch(f"dimension {len(a)} exceeds supported maximum {MAX_DIM}")
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

    def _amplitudes(self, thetas: np.ndarray) -> np.ndarray:
        return require_normalized(_pure_flow(self.a, thetas))

    def state_at(self, theta: float) -> PureState:
        return PureState(self._amplitudes(_thetas(theta))[0])

    def rho_matrices(self, thetas: np.ndarray) -> np.ndarray:
        return rank_one_projectors(self._amplitudes(thetas))

    def walk(self, thetas: np.ndarray, steps: np.ndarray) -> tuple[DensityStack, np.ndarray]:
        """One flow of the amplitudes at both: the states take their eigenpairs from them, the other rows are projectors."""
        amps = self._amplitudes(np.concatenate([thetas, steps]))
        return pure_projector_stack(amps[: len(thetas)]), rank_one_projectors(amps[len(thetas) :])

    def drho_stack(self, thetas: np.ndarray, rho: np.ndarray) -> np.ndarray:
        left = matmul(self._generator, rho)
        return left + dagger(left)  # A rho - rho A: rho A = -(A rho)^dag, as A^dag = -A and rho = rho^dag exactly


@finite_closed_form
def _pure_flow(a: tuple[complex, ...], thetas: np.ndarray) -> np.ndarray:
    """The (n, d) amplitudes of ``PureQditCoeffs``'s closed form at thetas; w/2 or w theta/2 may overflow."""
    half_b, rest = a[0].imag / 2, np.array(a[1:])
    half_w = math.hypot(half_b, *np.abs(rest))  # w / 2, finite unless w / 2 itself is beyond the float range
    # sin(w theta/2) / (w/2); its limit theta at w = 0, where a = 0, keeps psi = e1 exactly
    sinc = np.sin(half_w * thetas) / half_w if half_w else thetas
    turn = np.exp(1j * half_b * thetas)
    first, scale = turn * (np.cos(half_w * thetas) + 1j * half_b * sinc), turn * sinc
    # real-by-complex products, so a row's bits do not depend on how many rows there are
    tail = scale.real[:, None] * rest + scale.imag[:, None] * (1j * rest)
    return np.concatenate([first[:, None], tail], axis=1)


@dataclass(frozen=True)
class GreatCirclePure(PureQditCoeffs):
    """Pure qubit great circle (cos(theta/2), e^{i phase} sin(theta/2)), the flow of a = (0, e^{i phase}/2)."""

    a: tuple[complex, ...] = field(init=False)
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", (0j, cmath.exp(1j * self.phase) / 2))
        super().__post_init__()


@dataclass(frozen=True)
class TableCurve(_StackedCurve):
    """Curve tabulated as (theta_j, rho_j) samples, linearly interpolated, so drho is a segment's slope.

    The samples are checked as one DensityStack when the curve is built;
    ``thetas`` (m,) and the checked ``rhos`` (m, d, d) are then held as
    read-only arrays, so they stay the checked samples and an argument check
    reads each in one ``isfinite`` (``errors.finite_closed_form``). A table's
    states lie on the table: its walk raises TableResolutionError for a state
    theta off it. A step theta +- h past an end follows the end segment, so
    the end points have a finite difference and a QFI split. At an interior
    knot drho is the slope of the segment to its right; a central finite
    difference there straddles the knot and gives the mean of the two slopes
    instead.
    """

    thetas: np.ndarray
    rhos: np.ndarray

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        if len(thetas) != len(self.rhos):
            raise DomainError("table thetas and rhos differ in length")
        if len(thetas) < 2:
            raise TableResolutionError("tabulated curve needs at least 2 samples")
        if not (thetas[1:] > thetas[:-1]).all():
            raise DomainError("table thetas must be strictly increasing")
        try:
            stack = as_stack(self.rhos)
        except ValueError:
            raise DimensionMismatch("table samples differ in dimension") from None
        for name, value in (("thetas", thetas), ("rhos", DensityStack(stack).matrices)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def require_in_range(self, thetas: np.ndarray):
        """Raise TableResolutionError for the first theta outside the tabulated range."""
        ts = self.thetas
        outside = ~((ts[0] <= thetas) & (thetas <= ts[-1]))
        if outside.any():
            theta = float(thetas[int(np.argmax(outside))])
            raise TableResolutionError(
                f"theta={theta!r} outside the tabulated range [{ts[0]}, {ts[-1]}]"
            )

    def walk(self, thetas: np.ndarray, steps: np.ndarray) -> tuple[DensityStack, np.ndarray]:
        """The base walk, for states on the table; a step may leave it along an end segment."""
        self.require_in_range(thetas)
        return super().walk(thetas, steps)

    def _segments(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The knots and the segment j in [0, m - 2] of each theta: the last knot and a theta past an end take the end one."""
        knots = self.thetas
        return knots, np.clip(np.searchsorted(knots, thetas, side="right") - 1, 0, len(knots) - 2)

    def rho_matrices(self, thetas: np.ndarray) -> np.ndarray:
        knots, j = self._segments(thetas)
        frac = ((thetas - knots[j]) / (knots[j + 1] - knots[j]))[:, None, None]
        return (1.0 - frac) * self.rhos[j] + frac * self.rhos[j + 1]

    def drho_stack(self, thetas: np.ndarray, rho: np.ndarray) -> np.ndarray:
        knots, j = self._segments(thetas)
        return (self.rhos[j + 1] - self.rhos[j]) / (knots[j + 1] - knots[j])[:, None, None]


def _step_thetas(thetas: np.ndarray, h: float) -> np.ndarray:
    """theta + h, then theta - h: the points of a central difference."""
    if not (h > 0):
        raise DomainError(f"finite-difference step h={h!r} must be positive")
    steps = np.concatenate([thetas + h, thetas - h])  # one walk of the curve; a row's bits are its own
    if not np.isfinite(steps).all():
        raise OverflowError("theta +- h")  # finite_closed_form reports it as NonFiniteResult
    return steps


def _require_mode(mode: str):
    if mode not in (ANALYTIC, FD):
        raise DomainError(f"unknown differentiation mode {mode!r}")


def _central_difference(stepped: np.ndarray, h: float) -> np.ndarray:
    """(rho(theta + h) - rho(theta - h)) / 2h from the matrices at theta + h, then theta - h."""
    plus, minus = np.split(stepped, 2)
    diff = plus - minus
    diff /= 2 * h
    return diff


def _directions(drho: np.ndarray) -> np.ndarray:
    """drho made exactly Hermitian, and traceless by projection, both in the buffer of the symmetrized sum."""
    sym = drho + _dagger_copy(drho)
    sym /= 2
    dim = sym.shape[1]
    sym -= (traces(sym).real / dim)[:, None, None] * np.eye(dim)
    return sym


@finite_closed_form
def walk_curve(curve, thetas: np.ndarray, mode: str, h: float) -> tuple[DensityStack, np.ndarray, np.ndarray]:
    """The one walk of a curve at a vector of thetas, and the one place that forms drho: (rho, drho, stepped).

    One evaluation of the family's formula (``walk``) at theta and, where a
    stage reads them, at theta + h and theta - h feeds every stage:

    * ``rho``, the checked states rho(theta); a table's must lie on it;
    * ``drho``, d rho / d theta, closed-form or the central finite difference,
      as an (n, d, d) stack of exactly Hermitian matrices made traceless by
      projection: every family is unit-trace, a table by its load check, so
      the trace is roundoff and is not judged. The closed form is the
      family's ``drho_stack``, which reads the matrices of ``rho`` (a pure
      flow's A rho - rho A); the finite difference reads ``stepped``;
    * ``stepped``, the unchecked matrices rho(theta + h) then rho(theta - h),
      (2n, d, d), which a table's QFI split (``fisher.qfi_split``, in either
      mode) reads; (0, d, d) for any other curve, whose finite difference,
      here, is their last read. A step past a table's end follows the end
      segment.

    A theta +- h or a drho that overflows (in the curve's formula, the
    difference quotient or the symmetrization) raises NonFiniteResult.
    """
    _require_mode(mode)
    split = isinstance(curve, TableCurve)  # a table's split reads its spectra at theta +- h in either mode
    steps = _step_thetas(thetas, h) if mode == FD or split else _NO_THETAS
    rho, stepped = curve.walk(thetas, steps)
    if mode == ANALYTIC:
        drho = curve.drho_stack(thetas, rho.matrices)
    else:
        drho = _central_difference(stepped, h)
        if not split:  # the difference was the step rows' last read: keep none of them alive
            stepped = np.empty((0,) + drho.shape[1:], dtype=complex)
    return rho, _directions(drho), stepped


def differentiate_curve(curve, theta: float, mode: str = ANALYTIC, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """d rho / d theta along a curve at one theta: one row of ``walk_curve``, which checks its state too."""
    return walk_curve(curve, _thetas(theta), mode, h)[1][0]


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

    ``drho`` is (n, d, d), or (n, p, d, d) for p directions at each rho.
    Trusts ``drho`` to be valid row by row (see ``require_direction``), as
    ``walk_curve`` returns it. In each rho's eigenbasis L_ij = 2 drho_ij /
    (lam_i + lam_j) on the support; both changes of basis, V^dag drho V and
    V L V^dag, are ``linalg.congruence``, whose exactly Hermitian result
    needs no symmetrizing: on a qubit stack it forms the three independent
    entries of each row by entry formulas. A qubit row's denominators are the
    sums w0 + w0, w0 + w1 and w1 + w1, and on a full-rank stack its L_ij the
    real and imaginary parts of 2 drho_ij times 1 / (lam_i + lam_j), the bits
    of numpy's complex-by-float division. L is formed in the buffer of
    V^dag drho V, and the divisors die before the back-transform. Entries
    over eigenvalue pairs outside the support are set to 0 when drho
    vanishes there too, within SUPPORT_LEAK_TOL * max(1, ||drho||_F) for
    each row and direction; otherwise the direction leaves the support and
    SupportMismatch is raised.
    """
    w, v = rho.eigenvalues, rho.eigenvectors
    if drho.ndim == 4:
        w, v = w[:, None], v[:, None]
    dr = congruence(v, drho)
    qubit = w.shape[-1] == 2
    if qubit:  # three (n,) sums: numpy's broadcast add would loop over 2 entries per row
        w0, w1 = w[..., 0], w[..., 1]
        denom = np.empty(w.shape + (2,))
        denom[..., 0, 0], denom[..., 1, 1] = w0 + w0, w1 + w1
        denom[..., 0, 1] = denom[..., 1, 0] = w0 + w1
    else:
        denom = w[..., :, None] + w[..., None, :]
    support = denom > SUPPORT_CUTOFF
    full = support.all()  # every rho of full rank: no pair to judge or zero
    if not full:
        _require_support(dr, support)
    # L_ij = 2 dr_ij / (lam_i + lam_j) on the support and 0 off it, each step written over its operand
    np.multiply(2.0, dr, out=dr)
    if full and qubit:
        # numpy divides a complex by a float as re * (1 / c) + i im * (1 / c), the same bits but for the
        # sign of a zero part, after casting the whole float stack to complex, which costs more
        np.divide(1.0, denom, out=denom)
        for part in (dr.real, dr.imag):
            np.multiply(part, denom, out=part)
    elif full:
        np.divide(dr, denom, out=dr)
    else:
        np.divide(dr, denom, out=dr, where=support)
        np.copyto(dr, 0.0, where=~support)
    del denom, support  # dead before the back-transform, which holds its own temporaries
    return congruence(dagger(v), dr)


def _require_support(dr: np.ndarray, support: np.ndarray):
    """Raise SupportMismatch if a row's V^dag drho V has weight on an eigenvalue pair outside the support.

    Weight up to SUPPORT_LEAK_TOL * max(1, ||drho||_F) is roundoff: it grows
    with ||drho||_F = ||dr||_F, so the rule is relative to it. That tolerance
    is never below SUPPORT_LEAK_TOL, so it is formed only where the bare one
    is exceeded.
    """
    mag = np.abs(dr)
    leak = ~support & (mag > SUPPORT_LEAK_TOL)
    if leak.any():
        peak = _reduce_rows(np.maximum, mag, axes=2, initial=1.0)  # norms of dr / peak cannot overflow
        tol = SUPPORT_LEAK_TOL * np.maximum(1.0, peak * frobenius_norms(dr / peak[..., None, None]))
        leak &= mag > tol[..., None, None]
    if leak.any():
        weight = abs(dr[tuple(np.argwhere(leak)[0])])
        raise SupportMismatch(f"drho has weight {weight:.3e} outside the support of rho")


def sld_solve(rho: DensityOp, drho) -> np.ndarray:
    """Solve drho = (rho L + L rho)/2 for Hermitian L in rho's eigenbasis (see ``sld_solve_stack``)."""
    return sld_solve_stack(rho.stack, require_direction(drho, rho.dim)[None])[0]


@finite_closed_form
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


def _sphere_drho_stack(k, z: np.ndarray, v) -> np.ndarray:
    """The sphere half of ``assemble_drho_stack``: the (n, 2, 2) drho of the velocities v at fixed k."""
    z, v = np.asarray(z, dtype=complex), np.asarray(v, dtype=complex)
    zc, vc = z.conj(), v.conj()
    sphere = np.stack([zc * v + z * vc, z * z * vc - v, zc * zc * v - vc, -(zc * v + z * vc)], axis=-1)
    pref = (2.0 * np.asarray(k) - 1.0) / (1.0 + np.abs(z) ** 2) ** 2
    return (pref[:, None] * sphere).reshape(-1, 2, 2)


def assemble_drho_stack(k, z: np.ndarray, dk, v) -> np.ndarray:
    """Qubit drho of the tangents (dk, v) at the points (k, z): an (n, 2, 2) stack for n north coordinates z.

    ``k``, ``dk`` and ``v`` are arrays of n values or one for all. Points are
    trusted as QubitPoint checks them, and k = 0 is the pure family. drho is
    the sphere half plus dk times the transverse tangent d rho / dk, the chart
    matrix of weights (1, -1) (``states.chart_matrices``). The z = infinity
    pole has no north coordinate; ``TransverseCurve`` reaches it in the south chart.
    """
    unit = chart_matrices(1.0, -1.0, np.asarray(z, dtype=complex), Chart.NORTH)
    return _sphere_drho_stack(k, z, v) + np.reshape(dk, (-1, 1, 1)) * unit


@finite_closed_form
def assemble_drho(k: float, z: complex, dk: float, v: complex) -> np.ndarray:
    """Full qubit drho for the combined tangent (dk, v) at (k, z): one checked row of ``assemble_drho_stack``."""
    require_mixing_weight(k)
    return assemble_drho_stack(k, np.array([complex(z)]), dk, v)[0]
