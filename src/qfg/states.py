"""Pure d-level states and the rank-2 mixed-qubit manifold.

A mixed qubit with eigenvalues (k, 1-k), 0 < k <= 1/2, lives on a sphere of
stereographic coordinate z (eigenvector direction) times the mixing interval.
The north chart carries finite z; the point z = infinity is represented in the
south chart with coordinate w = 1/z, so every point has a finite coordinate in
some chart. The gauge of the unitary lift U(z) is fixed by taking both column
phases to zero, with chi := 0 at z = 0. ``chart_matrices`` is the one place
that forms U diag(k1, k2) U^dag in either chart: rho with weights (k, 1-k),
the transverse tangent d rho / dk with (1, -1).

Two builders give states whose eigenpairs are known by construction, with no
eigensolve: ``pure_projector_stack`` (a pure state, from the Householder lift
of psi) and ``chart_states`` (a mixed qubit's chart point: the eigenvalues
(k, 1 - k) and the columns of U). Every other state is solved by
``linalg.eigh``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ChartSingularity, DomainError, NotNormalized, finite_closed_form
from .linalg import DensityOp, DensityStack, rank_one_projectors


class Chart(Enum):
    NORTH = "north"
    SOUTH = "south"


#: Sentinel accepted by :func:`qubit_point` for the z = infinity pole.
AT_INFINITY = "inf"


def require_normalized(amps: np.ndarray) -> np.ndarray:
    """Check that every row of an (n, d) amplitude array has unit norm within 1e-12; a NaN row has none."""
    norms = np.sqrt(np.vecdot(amps, amps).real)
    bad = ~(np.abs(norms - 1.0) <= 1e-12)
    if bad.any():
        norm = float(np.linalg.norm(amps[int(np.argmax(bad))]))
        raise NotNormalized(f"state norm {norm!r} differs from 1 by more than 1e-12")
    return amps


def require_mixing_weight(k: float) -> float:
    """Check that a mixing weight lies in (0, 1/2]."""
    if not (0.0 < k <= 0.5):
        raise DomainError(f"k={k!r} outside (0, 1/2]")
    return k


def require_finite_coords(coord: np.ndarray) -> np.ndarray:
    """Check that every chart coordinate of an array is finite."""
    if not np.isfinite(coord).all():
        raise DomainError("chart coordinate must be finite")
    return coord


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of a d-level system."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = require_normalized(np.asarray(self.amplitudes, dtype=complex).reshape(1, -1))[0]
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class QubitPoint:
    """Chart point (k, coord) on the mixed-qubit manifold.

    ``coord`` is z in the north chart and w = 1/z in the south chart; w = 0
    is the z = infinity pole, where the density matrix is diagonal.
    """

    k: float
    coord: complex = 0j
    chart: Chart = Chart.NORTH

    def __post_init__(self):
        require_mixing_weight(self.k)
        c = complex(self.coord)
        require_finite_coords(np.array([c]))
        object.__setattr__(self, "coord", c)

    @property
    def r(self) -> float:
        return 1.0 - 2.0 * self.k

    @property
    def psi_angle(self) -> float:
        """Transverse arc coordinate Psi = arcsin(1 - 2k) in [0, pi/2)."""
        return math.asin(self.r)

    @property
    def at_infinity(self) -> bool:
        return self.chart is Chart.SOUTH and self.coord == 0

    @property
    def z(self) -> complex:
        """Physical north-chart coordinate; undefined at the infinity pole, non-finite where 1/w overflows."""
        if self.chart is Chart.NORTH:
            return self.coord
        if self.coord == 0:
            raise ChartSingularity("z is infinite at the south-chart origin")
        return _other_chart(self.coord)


def qubit_point(k: float, z) -> QubitPoint:
    """Build a QubitPoint from (k, z), with z = AT_INFINITY ("inf") allowed."""
    if isinstance(z, str):
        if z == AT_INFINITY:
            return QubitPoint(k, 0j, Chart.SOUTH)
        raise DomainError(f"unrecognized z value {z!r}")
    return QubitPoint(k, complex(z), Chart.NORTH)


@dataclass(frozen=True)
class S3Point:
    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        norm = math.sqrt(self.x1**2 + self.x2**2 + self.x3**2 + self.x4**2)
        if abs(norm - 1.0) > 1e-12:
            raise NotNormalized(f"S3 point norm {norm!r} differs from 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.x4])


def pure_projector(psi: PureState) -> DensityOp:
    """Rank-one projector |psi><psi|, with its eigenpairs from the Householder lift of psi (no eigensolve)."""
    return pure_projector_stack(psi.amplitudes[None])[0]


def pure_projector_stack(amps: np.ndarray) -> DensityStack:
    """Projectors |psi><psi| of the rows of an (n, d) array of normalized amplitudes.

    Each row is checked as ``DensityStack`` checks it, but its eigenpairs are
    not solved for: they are the spectrum (0, ..., 0, 1) and the Householder
    lift of psi (``_householder_lift``), a unitary with psi's direction as its
    last column.
    """
    return DensityStack.from_eigenpairs(rank_one_projectors(amps), *_householder_lift(amps))


def _householder_lift(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of |psi><psi| for the unit rows psi of an (n, d) array: w = (0, ..., 0, 1) and a unitary V.

    V is the Householder reflection H = I - u u^dag / (1 + |psi_k|), u = psi
    + (psi_k / |psi_k|) e_k, with its columns k and d - 1 swapped: H's column
    k is -(psi_k / |psi_k|)^* psi. The pivot k is the first component of
    largest modulus, at least 1/sqrt(d), so the phase psi_k / |psi_k| is
    exact to roundoff and u does not cancel, whatever components are zero or
    subnormal. The work runs along the stack axis, on (d, n) and (d, d, n)
    arrays, and each entry of V is the same real arithmetic in every row, so
    a row's bits are its own, whatever the stack size.
    """
    n, d = amps.shape
    a = np.ascontiguousarray(amps.T)
    mag = np.abs(a)
    k = np.argmax(mag, axis=0)
    at_k, top = np.arange(d)[:, None] == k, mag.max(axis=0)
    del mag
    # u_k = psi_k + psi_k / |psi_k|, in real arithmetic
    pr, pi = np.choose(k, a.real), np.choose(k, a.imag)
    ukr, uki = pr + pr / top, pi + pi / top
    ur, ui = np.where(at_k, ukr, a.real), np.where(at_k, uki, a.imag)
    del a, pr, pi
    # t = u^dag / -(1 + |psi_k|) with its components k and d - 1 swapped: V = P + u t for the swap P
    c = 1.0 + top
    tr, ti = ur / -c, ui / c
    tr, ti = np.where(at_k, tr[-1], tr), np.where(at_k, ti[-1], ti)
    tr[-1], ti[-1] = ukr / -c, uki / c
    unit = np.eye(d)
    swap = np.where(at_k[None], unit[-1][:, None, None], unit[:, :, None])
    swap[:, -1] = at_k
    ur, ui = ur[:, None], ui[:, None]
    v = np.empty((n, d, d), dtype=complex)
    # (d, d, n) parts formed in place: P + (u_r t_r - u_i t_i), then u_r t_i + u_i t_r
    part = ur * tr
    part -= ui * ti
    part += swap
    v.real[...] = part.transpose(2, 0, 1)
    del swap
    np.multiply(ur, ti, out=part)
    part += ui * tr
    v.imag[...] = part.transpose(2, 0, 1)
    w = np.zeros((n, d))
    w[:, -1] = 1.0
    return w, v


def chart_states(matrices: np.ndarray, k, coord: np.ndarray, chart: Chart) -> DensityStack:
    """The states ``chart_matrices(k, 1 - k, coord, chart)`` of n points of one chart, given as ``matrices``.

    Each row is checked as ``DensityStack`` checks it, but its eigenpairs are
    not solved for: they are the chart point's own (``_chart_eigenpairs``).
    ``k`` and ``coord`` are arrays of n values or one for all rows.
    """
    return DensityStack.from_eigenpairs(matrices, *_chart_eigenpairs(k, coord, chart))


def _chart_eigenpairs(k, coord: np.ndarray, chart: Chart) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of U diag(k, 1 - k) U^dag at n points of one chart: w = (k, 1 - k) and V, U's columns.

    ``k`` and ``coord`` broadcast, as in ``chart_matrices``: V is formed once
    per coordinate, so n weights at one point (a transverse curve's fixed
    one) give one V, broadcast read-only to the n rows, with the bits n
    copies of the point would give.

    U(c) = [[|c|, e], [-e^*, |c|]] / sqrt(1 + |c|^2), e = c / |c| (1 at c = 0),
    is ``unitary_of_z`` at c = z in the north chart. The south chart at w is
    the north formula at (1 - k, k, c = -w^*), so there V is U(c) with its
    columns swapped. w is ascending because k <= 1/2. The phase e is read from
    c scaled by the power of two of |c|, so a subnormal c keeps a unit phase.
    sqrt(1 + |c|^2) is formed as written: |c|^2 is finite, as
    ``chart_matrices`` formed it for the same points. The work runs on a
    contiguous copy of c, and each entry of V is the same arithmetic in every
    row, so a row's bits are its own, whatever the stack size or layout.
    """
    c = np.ascontiguousarray(-coord.conj() if chart is Chart.SOUTH else coord, dtype=complex)
    n = len(c)
    mag = np.abs(c)
    u = np.ldexp(c.view(float).reshape(n, 2), -np.frexp(mag)[1][:, None])  # re, im of c at |c| ~ 1
    unit = np.abs(u.view(complex)[:, 0])
    origin = unit == 0  # e := 1
    s = np.sqrt(1.0 + mag * mag)
    a, er, ei = mag / s, (u[:, 0] + origin) / (unit + origin) / s, u[:, 1] / (unit + origin) / s
    p = 0 if chart is Chart.NORTH else 1  # U's first column holds k in the north chart, 1 - k in the south
    v = np.zeros((n, 2, 2), dtype=complex)
    v.real[:, 0, p], v.real[:, 1, p], v.imag[:, 1, p] = a, -er, ei
    v.real[:, 0, 1 - p], v.imag[:, 0, 1 - p], v.real[:, 1, 1 - p] = er, ei, a
    w = np.empty(np.broadcast_shapes(np.shape(k), c.shape) + (2,))
    w[:, 0], w[:, 1] = k, 1.0 - k
    return w, np.broadcast_to(v, w.shape + (2,))


@finite_closed_form
def unitary_of_z(z: complex) -> np.ndarray:
    """Gauge-fixed unitary lift U(z) of a sphere point, with chi := 0 at z = 0.

    U(z) = [[|z|, e^{i chi}], [-e^{-i chi}, |z|]] / sqrt(1 + |z|^2).
    """
    z = complex(z)
    chi = cmath.phase(z) if z != 0 else 0.0
    az = abs(z)
    phase = cmath.exp(1j * chi)
    return np.array([[az, phase], [-1.0 / phase, az]], dtype=complex) / math.hypot(1.0, az)


def rho_of_kz(point: QubitPoint) -> DensityOp:
    """Density matrix U(z) diag(k1, k2) U(z)^dag, in the point's own chart.

    Eigenvalues are exactly {k, 1-k}; at the south-chart origin (z = infinity)
    the matrix is diag(k1, k2).
    """
    return rho_of_kz_stack(np.array([point.k]), np.array([point.coord]), point.chart)[0]


def rho_of_kz_stack(k, coord: np.ndarray, chart: Chart) -> DensityStack:
    """``rho_of_kz`` for n chart points of one chart: weights ``k`` and coordinates ``coord``.

    ``k`` and ``coord`` are arrays of n values or one for all points; the
    points must be valid, as QubitPoint checks them. A coordinate whose |coord|^2
    overflows the float range raises NonFiniteResult, once for the stack.
    The eigenpairs are the points' own (``chart_states``), not an eigensolve.
    """
    return chart_states(chart_matrices(k, 1.0 - k, coord, chart), k, coord, chart)


@finite_closed_form
def chart_matrices(k1, k2, coord: np.ndarray, chart: Chart) -> np.ndarray:
    """The (n, 2, 2) matrices U diag(k1, k2) U^dag at n points of one chart; each argument is n values or one.

    The south chart at w is the north formula at (k2, k1, -w*), so w = 0 gives
    diag(k1, k2). |coord|^2 is formed once per coordinate and broadcast
    against the weights, and the entries are divided by 1 + |coord|^2 in
    place.
    """
    if chart is Chart.SOUTH:
        k1, k2, coord = k2, k1, -coord.conj()
    ac2 = np.abs(coord) ** 2
    m = np.empty(np.broadcast_shapes(np.shape(k1), np.shape(k2), coord.shape) + (2, 2), dtype=complex)
    m[:, 0, 0] = k1 * ac2 + k2
    m[:, 0, 1] = (k2 - k1) * coord
    m[:, 1, 0] = (k2 - k1) * coord.conj()
    m[:, 1, 1] = k1 + ac2 * k2
    m /= (1.0 + ac2)[:, None, None]
    return m


@finite_closed_form
def _other_chart(coord: complex) -> complex:
    """The coordinate 1/coord of the same sphere point in the other chart; coord != 0."""
    return 1.0 / coord


def chart_convert(point: QubitPoint, target: str):
    """Convert between charts; target is "north", "south", or "spherical".

    "north"/"south" return the coordinate in the target chart; "spherical"
    returns (theta, phi) with z = cot(theta/2) e^{i phi}. Raises
    ChartSingularity where the target representation is undefined (phi at the
    poles, the opposite chart at its own origin's antipode), and
    NonFiniteResult where the other chart's 1/coord overflows.
    """
    if target == "spherical":
        c = point.coord
        if point.at_infinity:
            raise ChartSingularity("phi undefined at theta = 0 (z = infinity)")
        if point.chart is Chart.SOUTH:  # in the point's own chart, w = 1/z: no 1/w to overflow
            return 2.0 * math.atan2(abs(c), 1.0), -cmath.phase(c)
        if c == 0:
            raise ChartSingularity("phi undefined at theta = pi (z = 0)")
        return 2.0 * math.atan2(1.0, abs(c)), cmath.phase(c)
    if target == "north":
        return point.z
    if target == "south":
        if point.chart is Chart.SOUTH:
            return point.coord
        if point.coord == 0:
            raise ChartSingularity("z = 0 has no south-chart coordinate")
        return _other_chart(point.coord)
    raise DomainError(f"unknown chart target {target!r}")


def from_spherical(k: float, theta: float, phi: float) -> QubitPoint:
    """Point with z = cot(theta/2) e^{i phi}; theta = 0 maps to the south-chart origin."""
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta={theta!r} outside [0, pi]")
    if theta == 0.0:
        return QubitPoint(k, 0j, Chart.SOUTH)
    half = theta / 2.0
    z = (math.cos(half) / math.sin(half)) * cmath.exp(1j * phi)
    return QubitPoint(k, z, Chart.NORTH)


def s3_embed(point: QubitPoint) -> S3Point:
    """Embed (k, z) into the unit 3-sphere.

    Returns (sin Psi sin theta cos phi, sin Psi sin theta sin phi,
    sin Psi cos theta, cos Psi) with sin Psi = 1 - 2k. At the chart poles
    (theta = 0 or pi) the azimuth is immaterial and taken as 0.
    """
    psi = point.psi_angle
    if point.at_infinity:
        theta, phi = 0.0, 0.0
    elif point.coord == 0:
        theta, phi = math.pi, 0.0
    else:
        theta, phi = chart_convert(point, "spherical")
    sp = math.sin(psi)
    return S3Point(
        sp * math.sin(theta) * math.cos(phi),
        sp * math.sin(theta) * math.sin(phi),
        sp * math.cos(theta),
        math.cos(psi),
    )


@finite_closed_form
def spherical_tangent(z: complex, v: complex) -> tuple[float, float]:
    """Push a stereographic velocity v = dz/dt to (dtheta, dphi).

    Inverts dz = -(1/2) csc^2(theta/2) e^{i phi} dtheta + i z dphi; undefined
    at the poles z = 0 and z = infinity.
    """
    z = complex(z)
    if z == 0:
        raise ChartSingularity("spherical tangent undefined at z = 0")
    az2 = abs(z) ** 2
    zv = z.conjugate() * v
    dtheta = -2.0 * (zv.real / abs(z)) / (1.0 + az2)
    dphi = zv.imag / az2
    return dtheta, dphi


@finite_closed_form
def s3_tangent(point: QubitPoint, dk: float, v: complex) -> tuple[float, float, float]:
    """Push a manifold tangent (dk, v) to S^3 chart velocities (dPsi, dtheta, dphi)."""
    cos_psi = math.cos(point.psi_angle)
    dpsi = -2.0 * dk / cos_psi
    dtheta, dphi = spherical_tangent.__wrapped__(point.z, v)
    return dpsi, dtheta, dphi
