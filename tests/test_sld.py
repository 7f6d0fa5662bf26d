"""Tests for curves, differentiation, and SLD solvers."""

import cmath

import numpy as np
import pytest

from qfg.errors import (
    DimensionUnsupported,
    DomainError,
    NotNormalized,
    NotPositiveSemidefinite,
    SupportMismatch,
    TableResolutionError,
)
from qfg.fisher import pure_qdit_fisher, quantum_fisher
from qfg.geometry import hermitian_form_pullback, sphere_generator, sphere_tangent_matrix
from qfg.linalg import DensityOp, PAULI_X
from qfg.optimize import bloch_vector, reach_check_pure
from qfg.sld import (
    ANALYTIC,
    FD,
    RANK_GUARD,
    SUPPORT_CUTOFF,
    SUPPORT_LEAK_TOL,
    GreatCirclePure,
    PureQditCoeffs,
    SphereCurve,
    TableCurve,
    TransverseCurve,
    assemble_drho,
    assemble_drho_stack,
    differentiate_curve,
    sld_solve,
    sld_transverse,
    walk_curve,
)
from qfg.states import Chart, chart_matrices, qubit_point, rho_of_kz, unitary_of_z


def exact_drho(curve, thetas):
    """The family's exact derivatives at thetas, given the matrices rho(thetas) as a walk gives them."""
    return curve.drho_stack(thetas, curve.rho_matrices(thetas))


class TestDifferentiateCurve:
    def test_great_circle_at_zero(self):
        assert np.allclose(differentiate_curve(GreatCirclePure(), 0.0), PAULI_X / 2)

    def test_transverse_diagonal_frame(self):
        curve = TransverseCurve(k0=0.0, rate=1.0)
        assert np.allclose(differentiate_curve(curve, 0.25), np.diag([1, -1]))

    def test_transverse_curve_is_the_same_in_either_chart(self):
        # one transverse curve given at north z and at south w = 1/z
        rng = np.random.default_rng(30)
        thetas = np.linspace(0.0, 0.2, 5)
        for _ in range(50):
            z = complex(rng.normal(), rng.normal()) * 10 ** rng.uniform(-3, 3)
            k0, rate = rng.uniform(0.05, 0.25), rng.uniform(-0.2, 1.0)
            north = TransverseCurve(k0, rate, z, Chart.NORTH)
            south = TransverseCurve(k0, rate, 1 / z, Chart.SOUTH)
            assert np.allclose(north.rho_stack(thetas).matrices, south.rho_stack(thetas).matrices, rtol=0, atol=1e-12)
            assert np.allclose(exact_drho(north, thetas), exact_drho(south, thetas), rtol=0, atol=1e-12)

    def test_constant_curve(self):
        curve = SphereCurve(k=0.25, z0=0.5, velocity=0)
        assert np.allclose(differentiate_curve(curve, 1.0), 0)

    @pytest.mark.parametrize(
        "curve, theta",
        [
            (GreatCirclePure(phase=0.3), 0.8),
            (SphereCurve(k=0.3, z0=0.1 + 0.2j, velocity=1 - 0.4j), 0.5),
            (TransverseCurve(k0=0.1, rate=0.5, coord=0.7 - 0.2j, chart=Chart.NORTH), 0.4),
            (PureQditCoeffs(a=(0.1j, 0.4, 0.2 - 0.3j)), 0.6),
        ],
    )
    def test_fd_matches_analytic(self, curve, theta):
        exact = differentiate_curve(curve, theta, mode=ANALYTIC)
        approx = differentiate_curve(curve, theta, mode=FD, h=1e-6)
        assert np.linalg.norm(exact - approx) <= 1e-9

    def test_fd_second_order(self):
        curve = GreatCirclePure()
        exact = differentiate_curve(curve, 0.7, mode=ANALYTIC)
        errs = []
        steps = [1e-3, 5e-4, 2.5e-4]
        for h in steps:
            errs.append(np.linalg.norm(differentiate_curve(curve, 0.7, mode=FD, h=h) - exact))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope >= 1.9

    def test_traceless(self):
        drho = differentiate_curve(SphereCurve(k=0.2, z0=1j, velocity=2), 0.1)
        assert abs(np.trace(drho)) <= 1e-12

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            differentiate_curve(GreatCirclePure(), 0.0, mode=FD, h=0.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(DomainError):
            differentiate_curve(GreatCirclePure(), 0.0, mode="symbolic")

    def test_rank_guard_on_transverse(self):
        curve = TransverseCurve(k0=0.0, rate=1.0)
        with pytest.raises(DomainError):
            curve.rho_at(0.0)  # k = 0 collapses the rank
        with pytest.raises(DomainError):
            curve.rho_at(0.9)  # k > 1/2 leaves the chart


class TestTableCurve:
    def _table(self):
        thetas = np.linspace(0.1, 0.4, 7)
        rhos = [rho_of_kz(qubit_point(0.2 + 0.2 * t, 0.5)).matrix for t in thetas]
        return TableCurve(thetas=tuple(float(t) for t in thetas), rhos=tuple(rhos))

    def test_interpolates(self):
        curve = self._table()
        rho = curve.rho_at(0.25)
        assert rho.dim == 2
        assert np.trace(rho.matrix).real == pytest.approx(1.0)

    def test_fd_derivative(self):
        curve = self._table()
        drho = differentiate_curve(curve, 0.25, mode=FD, h=1e-3)
        expected = assemble_drho(0.2 + 0.2 * 0.25, 0.5, 0.2, 0.0)
        assert np.linalg.norm(drho - expected) <= 1e-6

    def test_analytic_derivative_is_the_segment_slope(self):
        curve = self._table()
        ts, rhos = curve.thetas, curve.rhos
        # 0.27 lies on segment 3; a knot takes the segment to its right, the last knot the last segment
        for theta, j in ((0.27, 3), (ts[3], 3), (ts[-1], len(ts) - 2)):
            slope = (rhos[j + 1] - rhos[j]) / (ts[j + 1] - ts[j])
            assert (exact_drho(curve, np.array([theta]))[0] == slope).all()
        fd = differentiate_curve(curve, 0.27, mode=FD, h=1e-3)
        assert np.linalg.norm(differentiate_curve(curve, 0.27, mode=ANALYTIC) - fd) <= 1e-6

    def test_out_of_range(self):
        with pytest.raises(TableResolutionError):
            self._table().rho_at(0.9)

    @pytest.mark.parametrize("mode", [ANALYTIC, FD])
    def test_step_past_an_end_follows_the_end_segment(self, mode):
        # the states lie on the table; theta +- h at an end is on the end segment's line, so fd gives its slope
        curve = self._table()
        ts, rhos = curve.thetas, curve.rhos
        ends = np.array([ts[0], ts[-1]])
        rho, drho, stepped = walk_curve(curve, ends, mode, 1e-3)
        slopes = [(rhos[1] - rhos[0]) / (ts[1] - ts[0]), (rhos[-1] - rhos[-2]) / (ts[-1] - ts[-2])]
        assert np.allclose(drho, slopes, rtol=0, atol=1e-12)
        below, above = ts[0] - 1e-3, ts[-1] + 1e-3
        expected = [rhos[0] - 1e-3 * slopes[0], rhos[-1] + 1e-3 * slopes[1]]
        assert np.allclose(stepped[[2, 1]], expected, rtol=0, atol=1e-15)
        assert np.allclose(curve.rho_matrices(np.array([below, above])), stepped[[2, 1]], rtol=0, atol=0)
        with pytest.raises(TableResolutionError):
            walk_curve(curve, np.array([ts[0], above]), mode, 1e-3)

    def test_samples_are_held_as_read_only_arrays(self):
        curve = self._table()
        assert curve.thetas.shape == (7,) and curve.rhos.shape == (7, 2, 2)
        for field in (curve.thetas, curve.rhos):
            with pytest.raises(ValueError):
                field[0] = 0.0

    def test_argument_check_does_not_grow_with_the_samples(self, monkeypatch):
        # the walk's finiteness check reads each field of a table in one isfinite, at any sample count
        import qfg.errors

        original, checked = qfg.errors._finite, []

        def counted(x):
            checked.append(type(x))
            return original(x)

        monkeypatch.setattr(qfg.errors, "_finite", counted)
        counts = []
        for m in (2, 200):
            knots = np.linspace(0.0, 1.0, m)
            curve = TableCurve(thetas=tuple(knots), rhos=tuple(np.diag([0.3 + 0.1 * t, 0.7 - 0.1 * t]) for t in knots))
            checked.clear()
            walk_curve(curve, np.linspace(0.1, 0.9, 50), FD, 1e-5)
            counts.append(checked.count(np.ndarray))
        # the arguments: the table's thetas and rhos and the walk's thetas; the results: drho and stepped
        assert counts[0] == counts[1] == 5

    def test_samples_checked_at_construction(self):
        # an interpolated state close to theta = 1 is valid, so only a check of the samples rejects it there
        with pytest.raises(NotPositiveSemidefinite):
            TableCurve(thetas=(0.0, 1.0), rhos=(np.diag([1.5, -0.5]), np.eye(2) / 2))

    def test_insufficient_samples(self):
        for n in (0, 1):
            with pytest.raises(TableResolutionError):
                TableCurve(thetas=(0.0,)[:n], rhos=(np.eye(2) / 2,)[:n])


class TestSldSolve:
    def test_diagonal_example(self):
        rho = DensityOp(np.diag([0.25, 0.75]))
        assert np.allclose(sld_solve(rho, np.diag([1.0, -1.0])), np.diag([4, -4 / 3]))

    def test_offdiagonal_example(self):
        rho = DensityOp(np.diag([0.25, 0.75]))
        assert np.allclose(sld_solve(rho, PAULI_X), 2 * PAULI_X)

    def test_pure_state_doubles_derivative(self):
        rho = DensityOp(np.diag([1.0, 0.0]))
        assert np.allclose(sld_solve(rho, PAULI_X), 2 * PAULI_X)

    def test_defining_equation(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = rng.uniform(0.01, 0.5)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 5)
            v = complex(rng.normal(), rng.normal())
            dk = rng.normal()
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, dk, v)
            ell = sld_solve(rho, drho)
            assert np.linalg.norm((rho.matrix @ ell + ell @ rho.matrix) / 2 - drho) <= 1e-10

    def test_support_mismatch(self):
        rho = DensityOp(np.diag([1.0, 0.0]))
        with pytest.raises(SupportMismatch):
            sld_solve(rho, np.diag([1.0, -1.0]))

    def test_traceless_required(self):
        with pytest.raises(DomainError):
            sld_solve(DensityOp(np.eye(2) / 2), np.eye(2))


class TestClosedFormSlds:
    def test_transverse_k_quarter(self):
        assert np.allclose(sld_transverse(0.25, 1, 0), np.diag([-4 / 3, 4]))

    def test_transverse_zero_velocity(self):
        assert np.allclose(sld_transverse(0.25, 0, 1 + 2j), 0)

    def test_transverse_degenerate_point(self):
        assert np.allclose(sld_transverse(0.5, 1, 0), np.diag([-2, 2]))

    def test_transverse_matches_general_solver(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            k = rng.uniform(0.02, 0.5)
            dk = rng.normal()
            z = complex(rng.normal(), rng.normal())
            expected = sld_solve(rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, dk, 0.0))
            assert np.linalg.norm(sld_transverse(k, dk, z) - expected) <= 1e-10

    def test_sphere_example(self):
        assert np.allclose(assemble_drho(0.25, 0, 0.0, 1), PAULI_X / 2)

    def test_sphere_zero_cases(self):
        assert np.allclose(assemble_drho(0.25, 1.3, 0.0, 0), 0)
        assert np.allclose(assemble_drho(0.5, 1.3, 0.0, 1), 0)

    def test_sphere_sld_is_twice_drho(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = rng.uniform(0.02, 0.5)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 3)
            v = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, 0.0, v)
            assert np.linalg.norm(sld_solve(rho, drho) - 2 * drho) <= 1e-10

    def test_sphere_anticommutator_identity(self):
        # rho drho + drho rho = (k1 + k2) drho for sphere directions
        rng = np.random.default_rng(24)
        for _ in range(100):
            k = rng.uniform(0.02, 0.5)
            z = complex(rng.normal(), rng.normal())
            v = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z)).matrix
            drho = assemble_drho(k, z, 0.0, v)
            assert np.linalg.norm(rho @ drho + drho @ rho - drho) <= 1e-10

    def test_pure_family_prefactor(self):
        z, v = 0.4 - 0.7j, 1.2 + 0.3j
        pure = assemble_drho_stack(0.0, np.array([z]), 0.0, v)[0]
        assert np.allclose(pure, assemble_drho(0.25, z, 0.0, v) / (2 * 0.25 - 1) * (-1))


class TestTangentDir:
    """Qubit tangents (dk, v): the drho rows of assemble_drho_stack and their reference-frame forms."""

    def test_drho_parts_are_traceless(self):
        assert abs(np.trace(assemble_drho(0.3, 0.5 + 0.5j, 0.2, 1 - 1j))) <= 1e-12

    def test_generator_reproduces_sphere_part(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 3)
            v = complex(rng.normal(), rng.normal())
            rng.normal()  # a transverse rate, which the generator does not see
            gen = sphere_generator(z, v)
            rho = rho_of_kz(qubit_point(k, z)).matrix
            commutator = -1j * (gen @ rho - rho @ gen)
            assert np.linalg.norm(commutator - assemble_drho(k, z, 0.0, v)) <= 1e-10

    def test_transverse_allowed_at_infinity(self):
        assert np.array_equal(exact_drho(TransverseCurve(k0=0.25), np.array([0.0])), np.diag([1, -1])[None])

    @pytest.mark.parametrize("chart", list(Chart))
    def test_transverse_drho_is_one_matrix_at_every_theta(self, chart):
        # rate times the (1, -1) chart matrix of the fixed point, the same bits in each row as the row's own
        curve = TransverseCurve(k0=0.1, rate=0.3, coord=0.4 - 1.7j, chart=chart)
        thetas = np.linspace(0.0, 1.0, 2000)
        row = curve.rate * chart_matrices(1.0, -1.0, np.array([curve.coord]), chart)[0]
        assert (exact_drho(curve, thetas) == row).all()
        with pytest.raises(DomainError, match="leaves"):  # the walk's rank guard: k(2) = 0.7
            walk_curve(curve, np.array([0.5, 2.0]), ANALYTIC, 1e-5)

    def test_transverse_half_is_the_chart_matrix(self):
        # d rho / dk is the (1, -1) chart matrix, bit for bit, in every qubit drho
        rng = np.random.default_rng(29)
        k = rng.uniform(0.02, 0.5, 64)
        z = rng.normal(size=64) + 1j * rng.normal(size=64)
        z[0] = 0
        dk = rng.normal(size=64)
        unit = chart_matrices(1.0, -1.0, z, Chart.NORTH)
        assert np.array_equal(assemble_drho_stack(k, z, dk, 0), dk[:, None, None] * unit)

    def test_xtilde0_matches_geometry_constructor(self):
        # the reference-frame tangent is U(z)^dag (d/dtheta) rho(k, z + theta v) U(z), by central differences
        rng = np.random.default_rng(26)
        h = 1e-6
        for _ in range(50):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v = complex(rng.normal(), rng.normal())
            u = unitary_of_z(z)
            fd = (rho_of_kz(qubit_point(k, z + h * v)).matrix - rho_of_kz(qubit_point(k, z - h * v)).matrix) / (2 * h)
            assert np.allclose(sphere_tangent_matrix(k, z, v), u.conj().T @ fd @ u, atol=1e-8)

    def test_drho_is_derivative_of_rho(self):
        # the combined (dk, v) tangent against central differences of rho_of_kz
        rng = np.random.default_rng(28)
        h = 1e-6
        points, drhos = [], []
        for _ in range(50):
            k = rng.uniform(0.02, 0.45)
            z = complex(rng.normal(), rng.normal())
            dk, v = float(rng.normal()) * 0.05, complex(rng.normal(), rng.normal())
            plus = rho_of_kz(qubit_point(k + h * dk, z + h * v)).matrix
            minus = rho_of_kz(qubit_point(k - h * dk, z - h * v)).matrix
            drho = assemble_drho(k, z, dk, v)
            assert np.allclose(drho, (plus - minus) / (2 * h), atol=1e-8)
            points.append((k, z, dk, v))
            drhos.append(drho)
        # every row of the stacked builder is the one-row call
        k, z, dk, v = (np.array(column) for column in zip(*points))
        assert np.array_equal(assemble_drho_stack(k, z, dk, v), np.array(drhos))

    def test_sphere_drho_is_rotated_reference_tangent(self):
        # the reference matrix tangent IS drho at the reference point
        rng = np.random.default_rng(27)
        for _ in range(50):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v = complex(rng.normal(), rng.normal())
            u = unitary_of_z(z)
            assert np.allclose(assemble_drho(k, z, 0.0, v), u @ sphere_tangent_matrix(k, z, v) @ u.conj().T, atol=1e-12)


class TestGuardEdges:
    def test_rank_guard_edge(self):
        # k = RANK_GUARD keeps a rank-2 curve, with QFI dk^2 / (k (1-k)); the next float below is rejected
        curve = TransverseCurve(k0=RANK_GUARD, rate=1.0)
        rho, drho = curve.rho_at(0.0), differentiate_curve(curve, 0.0)
        assert quantum_fisher(rho, drho) == pytest.approx(1.0 / (RANK_GUARD * (1.0 - RANK_GUARD)), rel=1e-12)
        below = TransverseCurve(k0=float(np.nextafter(RANK_GUARD, 0.0)), rate=1.0)
        with pytest.raises(DomainError):
            below.rho_at(0.0)

    @pytest.mark.parametrize("pair_sum", [1.01 * SUPPORT_CUTOFF, SUPPORT_CUTOFF, 0.99 * SUPPORT_CUTOFF],
                             ids=["above", "at", "below"])
    def test_support_cutoff_edge(self, pair_sum):
        # the (0, 0) eigenvalue pair of diag(lam, 1 - lam) sums to 2 lam: above the cutoff it enters L
        lam = pair_sum / 2
        rho = DensityOp(np.diag([lam, 1.0 - lam]))
        d = 1e-13
        ell = sld_solve(rho, np.diag([d, -d]))
        expected = d / lam if pair_sum > SUPPORT_CUTOFF else 0.0
        assert ell[0, 0] == pytest.approx(expected, rel=1e-12)
        assert ell[1, 1] == pytest.approx(-d / (1.0 - lam), rel=1e-12)

    @pytest.mark.parametrize("inside", [0.0, 2.0**20], ids=["no-support-part", "support-part-1e6"])
    def test_support_leak_edge(self, inside):
        # off the support, drho weight up to SUPPORT_LEAK_TOL * max(1, ||drho||_F) is zeroed in L; more
        # leaves the support. The in-support part (0, 1) is a power of two, so ||drho||_F is formed exactly.
        rho = DensityOp(np.diag([0.0, 1.0]))
        part = np.array([[0.0, inside], [inside, 0.0]])
        edge = SUPPORT_LEAK_TOL * max(1.0, float(np.linalg.norm(part)))
        d = edge
        assert np.array_equal(sld_solve(rho, np.diag([d, -d]) + part), 2 * part + np.diag([0.0, -d]))
        d = float(np.nextafter(edge, 1.0))
        with pytest.raises(SupportMismatch):
            sld_solve(rho, np.diag([d, -d]) + part)


def test_pure_qdit_flow_preserves_norm():
    curve = PureQditCoeffs(a=(0.2j, 0.5, 0.1 + 0.1j, -0.2j))
    for theta in np.linspace(-1, 1, 7):
        rho = curve.rho_at(float(theta))
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rho.matrix @ rho.matrix - rho.matrix) <= 1e-12


def test_pure_qdit_initial_velocity():
    a = (0.2j, 0.5, 0.1 - 0.3j)
    curve = PureQditCoeffs(a=a)
    psi = curve.state_at(0.0).amplitudes
    assert np.allclose(psi, [1, 0, 0])
    h = 1e-6
    dpsi = (curve.state_at(h).amplitudes - curve.state_at(-h).amplitudes) / (2 * h)
    assert np.allclose(dpsi, a, atol=1e-8)


def _flow_by_eigh(a, theta):
    """exp(theta A) e1 for the curve's generator A, through the eigenpairs of the Hermitian 1j * A."""
    w, v = np.linalg.eigh(1j * PureQditCoeffs(a)._generator)
    return v @ (np.exp(-1j * theta * w) * v[0].conj())


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("kind", ["generic", "b=0", "r=0", "a=0"])
def test_pure_flow_closed_form_is_the_matrix_exponential(d, kind):
    # the flow of s a at theta is the flow of a at s theta, so theta runs over [-10, 10] / s and every
    # phase stays O(10): a phase of 1e13 rad, as at s = 1e12 and theta = 10, is known only to ~1e-3
    rng = np.random.default_rng([40, d])
    for scale in (1e-3, 1.0, 1e6, 1e12):
        a = np.concatenate([[1j * rng.normal()], rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)])
        if kind in ("b=0", "a=0"):
            a[0] = 0.0
        if kind in ("r=0", "a=0"):
            a[1:] = 0.0
        a = tuple(scale * a)
        thetas = np.linspace(-10.0, 10.0, 41) / scale
        amps = PureQditCoeffs(a)._amplitudes(thetas)
        exact = np.array([_flow_by_eigh(a, theta) for theta in thetas])
        assert np.abs(amps - exact).max() <= 1e-12
        if kind == "a=0":
            assert np.array_equal(amps, np.eye(d)[[0] * len(thetas)])


def test_great_circle_is_the_pure_flow_of_its_phase():
    rng = np.random.default_rng(41)
    thetas = np.linspace(-10.0, 10.0, 201)
    for phase in [0.0, np.pi / 2, np.pi, *rng.uniform(0.0, 2 * np.pi, 20)]:
        curve = GreatCirclePure(phase=phase)
        assert isinstance(curve, PureQditCoeffs) and curve.a == (0j, cmath.exp(1j * phase) / 2)
        expected = np.stack([np.cos(thetas / 2), np.exp(1j * phase) * np.sin(thetas / 2)], axis=1)
        assert np.abs(curve._amplitudes(thetas) - expected).max() <= 1e-15
    # one implementation: the great circle adds no evaluation of its own
    assert not {"_amplitudes", "state_at", "rho_stack", "drho_stack"} & set(vars(GreatCirclePure))


def test_phase_only_flow_has_exactly_zero_drho():
    curve = PureQditCoeffs(a=(0.4j, 0))
    thetas = np.linspace(-3.0, 3.0, 13)
    assert not exact_drho(curve, thetas).any()
    assert quantum_fisher(curve.rho_at(0.7), differentiate_curve(curve, 0.7)) == 0.0


def test_pure_qdit_rejects_real_a1():
    with pytest.raises(DomainError):
        PureQditCoeffs(a=(0.1, 0.5))


@pytest.mark.parametrize("call, error", [
    (lambda: pure_qdit_fisher([], []), DomainError),
    (lambda: reach_check_pure([], []), DomainError),
    (lambda: PureQditCoeffs(a=()), DomainError),
    (lambda: pure_qdit_fisher([0.3, 0.5], [np.eye(2)[0], np.eye(2)[1]]), DomainError),
    (lambda: reach_check_pure([1, 0], [0.3, 0.5]), DomainError),
    (lambda: pure_qdit_fisher([0.1j, np.nan], [np.eye(2)[0], np.eye(2)[1]]), DomainError),
    (lambda: reach_check_pure([1, 0], [0.1j, np.inf]), DomainError),
    (lambda: PureQditCoeffs(a=(0.1j, complex(np.nan, 0))), DomainError),
    (lambda: bloch_vector(np.eye(3)), DimensionUnsupported),
    (lambda: hermitian_form_pullback([0, 0], [1, 0], [1, 0]), NotNormalized),
], ids=["fisher-empty", "reach-empty", "curve-empty", "fisher-real-a1", "reach-real-a1", "fisher-nan",
        "reach-inf", "curve-nan", "bloch-3x3", "pullback-zero-psi"])
def test_wrong_input_raises_the_documented_kind(call, error):
    # pure d-level coefficients share one contract, sld.require_coefficients
    with pytest.raises(error):
        call()
