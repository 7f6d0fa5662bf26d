"""Tests for state construction and chart machinery."""

import cmath
import math

import numpy as np
import pytest

import qfg.linalg
from qfg.errors import ChartSingularity, DomainError, NonFiniteResult, NotNormalized
from qfg.linalg import dagger, eigh, frobenius_norms, matmul
from qfg.sld import FD, RANK_GUARD, PureQditCoeffs, SphereCurve, TransverseCurve, walk_curve
from qfg.states import (
    Chart,
    PureState,
    QubitPoint,
    chart_convert,
    chart_matrices,
    from_spherical,
    pure_projector,
    pure_projector_stack,
    qubit_point,
    require_normalized,
    rho_of_kz,
    rho_of_kz_stack,
    s3_embed,
    s3_tangent,
    spherical_tangent,
    unitary_of_z,
)


class TestPureProjector:
    def test_basis_state(self):
        rho = pure_projector(PureState([1, 0]))
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_plus_state(self):
        rho = pure_projector(PureState(np.array([1, 1]) / np.sqrt(2)))
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5))

    def test_circular_state(self):
        rho = pure_projector(PureState(np.array([1, 1j]) / np.sqrt(2)))
        assert np.allclose(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]])

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            PureState([1, 1])

    @pytest.mark.parametrize("row", [[np.nan, 0], [1, np.nan], [complex(0, np.nan), 0]], ids=["nan-re", "nan-2", "nan-im"])
    def test_rejects_nan_amplitudes(self, row):
        # |NaN - 1| > tol is False; a NaN norm is no unit norm
        amps = np.array([[1, 0], row], dtype=complex)
        with pytest.raises(NotNormalized):
            require_normalized(amps)
        with pytest.raises(NotNormalized):
            PureState(row)


EPS = np.finfo(float).eps


def _unit_rows(rng, n, d):
    """n unit amplitude rows at d, among them rows with zero and with subnormal components, ties and basis vectors."""
    amps = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    amps[1::4, 0] = 0.0
    amps[2::4, rng.integers(d)] = 0.0
    amps[3::4, -1] = 0.0
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    amps[3::4, -1] = 1e-310 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))  # adds nothing to the norm
    amps[0] = np.exp(1j * rng.uniform(0, 2 * math.pi, size=d)) / math.sqrt(d)  # every component ties
    if n > 1:
        amps[-1] = np.eye(d)[rng.integers(d)]
    return amps


@pytest.mark.parametrize("n", [1, 3, 2048])
@pytest.mark.parametrize("d", range(2, 9))
class TestHouseholderLift:
    """``pure_projector_stack`` takes |psi><psi|'s eigenpairs from psi: (0, ..., 0, 1) and a Householder lift."""

    def test_lift_is_an_eigendecomposition(self, d, n):
        amps = _unit_rows(np.random.default_rng(100 * d + n), n, d)
        stack = pure_projector_stack(amps)
        rho, w, v = stack.matrices, stack.eigenvalues, stack.eigenvectors
        assert (w == np.eye(d)[-1]).all() and (np.diff(w, axis=1) >= 0).all()
        assert np.isfinite(v).all() and v.flags.c_contiguous
        # linalg.eigh on the same matrices, LAPACK's, is the reference: it reads up to 6 eps
        # and 18 eps on these stacks, the lift up to 4 eps and 11 eps, its unitarity defect taking in
        # the rows' own 1 - |psi|^2
        w_ref, v_ref = eigh(rho)
        for values, vectors in ((w, v), (w_ref, v_ref)):
            assert frobenius_norms(matmul(rho, vectors) - vectors * values[:, None, :]).max() <= 8 * EPS
        assert frobenius_norms(matmul(dagger(v), v) - np.eye(d)).max() <= 16 * EPS
        assert np.abs(w - w_ref).max() <= 8 * EPS
        # the last column spans psi: |<psi, v_last>| = 1
        assert np.abs(np.abs(np.vecdot(amps, v[:, :, -1])) - 1.0).max() <= 8 * EPS

    def test_row_bits_are_their_own(self, d, n):
        amps = _unit_rows(np.random.default_rng(200 * d + n), n, d)
        stack = pure_projector_stack(amps)
        for i in range(0, n, 97):
            row = pure_projector_stack(amps[i : i + 1])
            assert (row.eigenvectors[0] == stack.eigenvectors[i]).all()
            assert (row.eigenvalues[0] == stack.eigenvalues[i]).all()
        fortran = pure_projector_stack(np.asfortranarray(amps))
        assert (fortran.eigenvectors == stack.eigenvectors).all()


def test_lift_of_the_flow_at_a_subnormal_theta():
    # psi = (1, ~1e-311): a lift pivoting on the last component divides by its subnormal modulus and returns NaN
    curve = PureQditCoeffs(a=(0j, 0.689 - 0.724j))
    theta = -2.225073858507e-311
    rho = curve.rho_at(theta)
    assert np.isfinite(rho.eigenvectors).all() and (rho.eigenvalues == [0.0, 1.0]).all()
    assert (rho.eigenvectors == pure_projector(curve.state_at(theta)).eigenvectors).all()
    assert np.linalg.norm(rho.matrix @ rho.eigenvectors - rho.eigenvectors * rho.eigenvalues) <= 4 * EPS


def _chart_points(rng, n):
    """n weights and coordinates: random ones with |coord| from 1e-300 to 1e150, and the edge cases among them."""
    k = rng.uniform(RANK_GUARD, 0.5, size=n)
    coord = 10.0 ** rng.uniform(-300, 150, size=n) * np.exp(1j * rng.uniform(0, 2 * math.pi, size=n))
    edges = [(0.5, 0j), (RANK_GUARD, 0j), (RANK_GUARD, 1e150), (0.25, complex(-0.0, -0.0)),
             (0.5, 1.7 - 0.3j), (RANK_GUARD * (1 + 2 * EPS), -1e150j), (0.3, 1e-320), (0.3, 3e-320 - 1e-321j),
             (0.2, -5e-324j), (0.4, 1.0), (0.1, 1e-300 + 1e-300j), (0.45, 2.5e-308 + 0j)]
    for i, (ki, ci) in enumerate(edges[:n]):
        k[i * n // len(edges)], coord[i * n // len(edges)] = ki, ci
    return k, coord


@pytest.mark.parametrize("n", [1, 3, 2048])
@pytest.mark.parametrize("chart", list(Chart), ids=lambda c: c.value)
class TestChartEigenpairs:
    """``rho_of_kz_stack`` takes rho's eigenpairs from the chart point: (k, 1 - k) and the columns of U(coord)."""

    def test_eigenpairs_decompose_the_state(self, chart, n):
        k, coord = _chart_points(np.random.default_rng(300 + n), n)
        stack = rho_of_kz_stack(k, coord, chart)
        rho, w, v = stack.matrices, stack.eigenvalues, stack.eigenvectors
        assert (w[:, 0] == k).all() and (w[:, 1] == 1.0 - k).all()
        assert np.isfinite(v).all() and v.flags.c_contiguous
        assert frobenius_norms(matmul(rho, v) - v * w[:, None, :]).max() <= 8 * EPS
        assert frobenius_norms(matmul(dagger(v), v) - np.eye(2)).max() <= 8 * EPS
        assert np.abs(w - eigh(rho)[0]).max() <= 8 * EPS

    def test_columns_are_the_unitary_lift(self, chart, n):
        # V is U(z), with its columns swapped in the south chart, where U(w) is taken at -w*
        k, coord = _chart_points(np.random.default_rng(400 + n), n)
        v = rho_of_kz_stack(k, coord, chart).eigenvectors
        for i in range(0, n, 97):
            u = unitary_of_z(coord[i] if chart is Chart.NORTH else -coord[i].conjugate())
            want = u if chart is Chart.NORTH else u[:, ::-1]
            assert np.abs(v[i] - want).max() <= 2 * EPS, coord[i]

    def test_row_bits_are_their_own(self, chart, n):
        k, coord = _chart_points(np.random.default_rng(500 + n), n)
        stack = rho_of_kz_stack(k, coord, chart)
        strided = rho_of_kz_stack(k, np.repeat(coord, 2)[::2], chart)
        for i in range(0, n, 97):
            row = rho_of_kz(QubitPoint(k[i], coord[i], chart))
            for a, b in ((row.eigenvectors, stack.eigenvectors[i]), (row.eigenvalues, stack.eigenvalues[i])):
                assert (a.view(np.uint64) == b.view(np.uint64)).all()
        assert (strided.eigenvectors.view(np.uint64) == stack.eigenvectors.view(np.uint64)).all()

    def test_one_point_is_broadcast_to_every_weight(self, chart, n):
        # a transverse chunk: n weights at one point form |coord|^2 and V once, with the bits of n copies of it
        k, coord = _chart_points(np.random.default_rng(600 + n), n)
        for c in coord[:: max(1, n // 8)]:
            one, full = rho_of_kz_stack(k, np.array([c]), chart), rho_of_kz_stack(k, np.full(n, c), chart)
            for a, b in ((one.matrices, full.matrices), (one.eigenvalues, full.eigenvalues),
                         (one.eigenvectors, full.eigenvectors)):
                assert a.shape == b.shape and len(a) == n
                assert (a.view(np.uint64) == b.view(np.uint64)).all()
            assert n == 1 or one.eigenvectors.strides[0] == 0  # one V, read by every row


@pytest.mark.parametrize("chart", list(Chart), ids=lambda c: c.value)
def test_transverse_states_share_one_eigenvector_matrix(chart):
    curve = TransverseCurve(k0=0.1, rate=0.3, coord=0.8 - 0.5j, chart=chart)
    thetas = np.linspace(0.0, 1.0, 2000)
    stack = curve.rho_stack(thetas)
    assert stack.eigenvectors.shape == (2000, 2, 2) and stack.eigenvectors.strides[0] == 0
    for i in (0, 999, 1999):
        row = rho_of_kz(curve.point_at(thetas[i]))
        assert (row.eigenvectors.view(np.uint64) == stack.eigenvectors[i].view(np.uint64)).all()
        assert (row.matrix.view(np.uint64) == stack.matrices[i].view(np.uint64)).all()


def test_chart_eigenpairs_at_the_poles_and_the_origin():
    # rho is diagonal at z = 0 and at the south-chart origin w = 0: V is a signed permutation
    north, south = rho_of_kz(QubitPoint(0.25, 0j)), rho_of_kz(QubitPoint(0.25, 0j, Chart.SOUTH))
    assert (north.matrix == np.diag([0.75, 0.25])).all() and (north.eigenvectors == [[0, 1], [-1, 0]]).all()
    assert (south.matrix == np.diag([0.25, 0.75])).all() and (south.eigenvectors == [[1, 0], [0, -1]]).all()
    assert (north.eigenvalues == [0.25, 0.75]).all() and (south.eigenvalues == [0.25, 0.75]).all()


@pytest.mark.parametrize("w", [1e-320, 3e-320 - 1e-321j, -5e-324j])
def test_chart_eigenpairs_of_a_subnormal_south_point(w):
    # the phase of a subnormal coordinate is read at |w| ~ 1, so it has unit modulus to roundoff
    rho = rho_of_kz(QubitPoint(0.2, w, Chart.SOUTH))
    v = rho.eigenvectors
    w = complex(w)
    c = complex(math.ldexp(-w.real, 1070), math.ldexp(w.imag, 1070))  # exactly 2^1070 (-w*), |c| ~ 1
    phase = c / abs(c)
    assert np.abs(v - [[phase, 0], [0, -phase.conjugate()]]).max() <= 2 * EPS
    assert np.linalg.norm(rho.matrix @ v - v * rho.eigenvalues) <= 4 * EPS


@pytest.mark.parametrize("curve", [
    SphereCurve(0.25, 0.3 + 0.2j, 1.0 - 0.5j),
    SphereCurve(RANK_GUARD, -1e100j, 1e99),
    TransverseCurve(0.1, 0.3, 0.5 + 0.5j, Chart.NORTH),
    TransverseCurve(0.25, 0.2, 1e-320, Chart.SOUTH),
    TransverseCurve(0.45, -0.2),
], ids=["sphere", "sphere-far", "transverse-north", "transverse-subnormal-south", "transverse-pole"])
def test_chart_curves_walk_without_an_eigensolve(monkeypatch, curve):
    # the walked states are rho_of_kz's at the curve's points, bit for bit
    thetas = np.linspace(-0.2, 0.8, 64)
    monkeypatch.setattr(qfg.linalg, "eigh", lambda m: pytest.fail("eigensolve of a chart state"))
    rho = walk_curve(curve, thetas, FD, 1e-5)[0]
    for i in range(0, len(thetas), 9):
        row = rho_of_kz(curve.point_at(thetas[i]))
        for a, b in ((row.matrix, rho.matrices[i]), (row.eigenvectors, rho.eigenvectors[i]),
                     (row.eigenvalues, rho.eigenvalues[i])):
            assert (a.view(np.uint64) == b.view(np.uint64)).all()


class TestUnitaryOfZ:
    def test_z_one(self):
        assert np.allclose(unitary_of_z(1), np.array([[1, 1], [-1, 1]]) / np.sqrt(2))

    def test_z_i(self):
        assert np.allclose(unitary_of_z(1j), np.array([[1, 1j], [1j, 1]]) / np.sqrt(2))

    def test_z_zero_gauge(self):
        assert np.allclose(unitary_of_z(0), [[0, 1], [-1, 0]])

    def test_unitary_property(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 5)
            u = unitary_of_z(z)
            assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("z", [1e200, 1e-200 * (1 + 1j)], ids=["huge", "tiny"])
    def test_unitary_at_extreme_z(self, z):
        # |z|^2 overflows or underflows here; the normalization must not
        u = unitary_of_z(z)
        assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-15


class TestRhoOfKz:
    def test_z_zero(self):
        assert np.allclose(rho_of_kz(qubit_point(0.25, 0)).matrix, np.diag([0.75, 0.25]))

    def test_degenerate_mixing(self):
        assert np.allclose(rho_of_kz(qubit_point(0.5, 1.7 - 0.3j)).matrix, np.eye(2) / 2)

    def test_z_one(self):
        assert np.allclose(rho_of_kz(qubit_point(0.25, 1)).matrix, [[0.5, 0.25], [0.25, 0.5]])

    def test_infinity_pole_is_diagonal(self):
        assert np.allclose(rho_of_kz(qubit_point(0.3, "inf")).matrix, np.diag([0.3, 0.7]))

    def test_eigenvalues_are_mixing_weights(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = rng.uniform(0.01, 0.5)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 4)
            rho = rho_of_kz(qubit_point(k, z))
            assert np.allclose(rho.eigenvalues, sorted([k, 1 - k]), atol=1e-12)

    def test_south_chart_matches_north(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = rng.uniform(0.05, 0.5)
            z = complex(rng.normal(), rng.normal())
            if z == 0:
                continue
            north = rho_of_kz(QubitPoint(k, z, Chart.NORTH))
            south = rho_of_kz(QubitPoint(k, 1 / z, Chart.SOUTH))
            assert np.allclose(north.matrix, south.matrix, atol=1e-12)

    def test_chart_matrices_rotate_the_weights(self):
        # U(z) diag(k1, k2) U(z)^dag for any real weights, in either chart
        rng = np.random.default_rng(12)
        for chart in Chart:
            coord = rng.normal(size=20) + 1j * rng.normal(size=20)
            k1, k2 = rng.normal(size=20), rng.normal(size=20)
            u = np.array([unitary_of_z(c if chart is Chart.NORTH else 1 / c) for c in coord])
            want = u @ (np.stack([k1, k2], axis=1)[:, :, None] * u.conj().transpose(0, 2, 1))
            assert np.allclose(chart_matrices(k1, k2, coord, chart), want, rtol=0, atol=1e-12)

    def test_k_range_enforced(self):
        with pytest.raises(DomainError):
            qubit_point(0.7, 0)
        with pytest.raises(DomainError):
            qubit_point(0.0, 0)


class TestChartConvert:
    def test_z_one_to_spherical(self):
        theta, phi = chart_convert(qubit_point(0.25, 1), "spherical")
        assert theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert phi == pytest.approx(0.0, abs=1e-12)

    def test_theta_pi_is_origin(self):
        point = from_spherical(0.25, math.pi, 2.2)
        assert abs(point.coord) <= 1e-12

    def test_z_i_to_spherical(self):
        theta, phi = chart_convert(qubit_point(0.25, 1j), "spherical")
        assert theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert phi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_round_trip_through_spherical(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 1e-3:
                continue
            point = qubit_point(0.2, z)
            theta, phi = chart_convert(point, "spherical")
            back = from_spherical(0.2, theta, phi)
            assert abs(back.coord - z) <= 1e-12 * max(1, abs(z))

    def test_round_trip_through_south(self):
        point = qubit_point(0.2, 2 + 1j)
        w = chart_convert(point, "south")
        again = chart_convert(QubitPoint(0.2, w, Chart.SOUTH), "north")
        assert abs(again - (2 + 1j)) <= 1e-12

    def test_north_is_the_point_z(self):
        for point in (qubit_point(0.2, 2 + 1j), QubitPoint(0.2, 0.5 - 0.25j, Chart.SOUTH), QubitPoint(0.2, 1e-300, Chart.SOUTH)):
            assert chart_convert(point, "north") == point.z
        with pytest.raises(ChartSingularity):
            chart_convert(qubit_point(0.2, "inf"), "north")

    def test_spherical_in_the_points_own_chart(self):
        # a south-chart point is converted without forming 1/w, so it stays finite next to the pole
        for w in (0.5 - 0.25j, -2.0, 1e-300, 1e-320):
            theta, phi = chart_convert(QubitPoint(0.2, w, Chart.SOUTH), "spherical")
            assert theta == pytest.approx(2.0 * math.atan(abs(w)), rel=1e-12)
            assert cmath.exp(1j * phi) == pytest.approx(complex(w).conjugate() / abs(w), rel=1e-12)  # the phase of z = 1/w
        assert np.allclose(s3_embed(QubitPoint(0.25, 1e-320, Chart.SOUTH)).as_array(), [0, 0, 0.5, math.sqrt(3) / 2])

    def test_overflowing_inverse_is_non_finite(self):
        # 1/coord beyond the float range is a computed overflow, not an infinite coordinate
        point = QubitPoint(0.2, 1e-320, Chart.SOUTH)
        with pytest.raises(NonFiniteResult):
            point.z
        with pytest.raises(NonFiniteResult):
            chart_convert(point, "north")
        with pytest.raises(NonFiniteResult):
            chart_convert(qubit_point(0.2, 1e-320), "south")

    def test_singularities(self):
        with pytest.raises(ChartSingularity):
            chart_convert(qubit_point(0.25, 0), "spherical")
        with pytest.raises(ChartSingularity):
            chart_convert(qubit_point(0.25, "inf"), "spherical")
        with pytest.raises(ChartSingularity):
            chart_convert(qubit_point(0.25, 0), "south")

    def test_unknown_target(self):
        with pytest.raises(DomainError):
            chart_convert(qubit_point(0.25, 1), "mercator")


class TestS3Embed:
    def test_degenerate_mixing_is_pole(self):
        assert np.allclose(s3_embed(qubit_point(0.5, 3 + 1j)).as_array(), [0, 0, 0, 1])

    def test_quarter_mixing_north_pole(self):
        point = from_spherical(0.25, 0.0, 0.0)
        assert np.allclose(s3_embed(point).as_array(), [0, 0, 0.5, math.sqrt(3) / 2])

    def test_pure_limit(self):
        point = from_spherical(1e-12, math.pi / 2, 0.0)
        assert np.allclose(s3_embed(point).as_array(), [1, 0, 0, 0], atol=1e-5)

    def test_unit_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = rng.uniform(0.01, 0.5)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 4)
            x = s3_embed(qubit_point(k, z)).as_array()
            assert abs(np.linalg.norm(x) - 1) <= 1e-12

    def test_injective_on_grid(self):
        points = []
        for k in np.linspace(0.05, 0.45, 5):
            for theta in np.linspace(0.3, math.pi - 0.3, 5):
                for phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                    points.append(s3_embed(from_spherical(float(k), float(theta), float(phi))).as_array())
        points = np.array(points)
        dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1e-3


class TestTangentPushforward:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 0.2:
                continue
            v = complex(rng.normal(), rng.normal())
            h = 1e-7
            t_p = chart_convert(qubit_point(0.2, z + h * v), "spherical")
            t_m = chart_convert(qubit_point(0.2, z - h * v), "spherical")
            dtheta_fd = (t_p[0] - t_m[0]) / (2 * h)
            dphi_fd = (np.angle(np.exp(1j * (t_p[1] - t_m[1])))) / (2 * h)
            dtheta, dphi = spherical_tangent(z, v)
            assert dtheta == pytest.approx(dtheta_fd, abs=1e-6)
            assert dphi == pytest.approx(dphi_fd, abs=1e-6)

    def test_transverse_component(self):
        point = qubit_point(0.25, 1.0)
        dpsi, _, _ = s3_tangent(point, dk=0.1, v=0)
        # Psi = arcsin(1-2k): dPsi/dk = -2/cos(Psi)
        assert dpsi == pytest.approx(-0.2 / math.cos(point.psi_angle))

    def test_singular_at_origin(self):
        with pytest.raises(ChartSingularity):
            spherical_tangent(0, 1)
