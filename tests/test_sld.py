"""Tests for curves, differentiation, and SLD solvers."""

import numpy as np
import pytest

from qfg.errors import (
    ChartSingularity,
    DomainError,
    SupportMismatch,
    TableResolutionError,
)
from qfg.fisher import quantum_fisher
from qfg.linalg import DensityOp, PAULI_X
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
    TangentDir,
    TransverseCurve,
    assemble_drho_stack,
    differentiate_curve,
    drho_sphere,
    drho_sphere_pure,
    drho_transverse,
    sld_solve,
    sld_transverse,
)
from qfg.states import qubit_point, rho_of_kz


class TestDifferentiateCurve:
    def test_great_circle_at_zero(self):
        assert np.allclose(differentiate_curve(GreatCirclePure(), 0.0), PAULI_X / 2)

    def test_transverse_diagonal_frame(self):
        curve = TransverseCurve(k0=0.0, rate=1.0)
        assert np.allclose(differentiate_curve(curve, 0.25), np.diag([1, -1]))

    def test_constant_curve(self):
        curve = SphereCurve(k=0.25, z0=0.5, velocity=0)
        assert np.allclose(differentiate_curve(curve, 1.0), 0)

    @pytest.mark.parametrize(
        "curve, theta",
        [
            (GreatCirclePure(phase=0.3), 0.8),
            (SphereCurve(k=0.3, z0=0.1 + 0.2j, velocity=1 - 0.4j), 0.5),
            (TransverseCurve(k0=0.1, rate=0.5, z=0.7 - 0.2j), 0.4),
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
        expected = drho_transverse(0.2 + 0.2 * 0.25, 0.2, 0.5)
        assert np.linalg.norm(drho - expected) <= 1e-6

    def test_analytic_unsupported(self):
        with pytest.raises(TableResolutionError):
            differentiate_curve(self._table(), 0.25, mode=ANALYTIC)

    def test_out_of_range(self):
        with pytest.raises(TableResolutionError):
            self._table().rho_at(0.9)

    def test_insufficient_samples(self):
        single = TableCurve(thetas=(0.0,), rhos=(np.eye(2) / 2,))
        with pytest.raises(TableResolutionError):
            single.rho_at(0.0)


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
            drho = drho_sphere(k, z, v) + drho_transverse(k, dk, z)
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
            expected = sld_solve(rho_of_kz(qubit_point(k, z)), drho_transverse(k, dk, z))
            assert np.linalg.norm(sld_transverse(k, dk, z) - expected) <= 1e-10

    def test_sphere_example(self):
        assert np.allclose(drho_sphere(0.25, 0, 1), PAULI_X / 2)

    def test_sphere_zero_cases(self):
        assert np.allclose(drho_sphere(0.25, 1.3, 0), 0)
        assert np.allclose(drho_sphere(0.5, 1.3, 1), 0)

    def test_sphere_sld_is_twice_drho(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = rng.uniform(0.02, 0.5)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 3)
            v = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z))
            drho = drho_sphere(k, z, v)
            assert np.linalg.norm(sld_solve(rho, drho) - 2 * drho) <= 1e-10

    def test_sphere_anticommutator_identity(self):
        # rho drho + drho rho = (k1 + k2) drho for sphere directions
        rng = np.random.default_rng(24)
        for _ in range(100):
            k = rng.uniform(0.02, 0.5)
            z = complex(rng.normal(), rng.normal())
            v = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z)).matrix
            drho = drho_sphere(k, z, v)
            assert np.linalg.norm(rho @ drho + drho @ rho - drho) <= 1e-10

    def test_pure_family_prefactor(self):
        z, v = 0.4 - 0.7j, 1.2 + 0.3j
        assert np.allclose(drho_sphere_pure(z, v), drho_sphere(0.25, z, v) / (2 * 0.25 - 1) * (-1))


class TestTangentDir:
    def test_drho_parts_are_traceless(self):
        t = TangentDir(qubit_point(0.3, 0.5 + 0.5j), dk=0.2, v=1 - 1j)
        assert abs(np.trace(t.drho)) <= 1e-12

    def test_generator_reproduces_sphere_part(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 3)
            v = complex(rng.normal(), rng.normal())
            t = TangentDir(qubit_point(k, z), dk=rng.normal(), v=v)
            rho = rho_of_kz(qubit_point(k, z)).matrix
            commutator = -1j * (t.generator @ rho - rho @ t.generator)
            assert np.linalg.norm(commutator - t.drho_sphere_part) <= 1e-10

    def test_xtilde_is_rotated_reference(self):
        from qfg.states import unitary_of_z

        t = TangentDir(qubit_point(0.25, 1 + 2j), v=0.5 - 0.5j)
        u = unitary_of_z(1 + 2j)
        assert np.allclose(t.xtilde, u @ t.xtilde0 @ u.conj().T)

    def test_sphere_velocity_rejected_at_infinity(self):
        with pytest.raises(ChartSingularity):
            TangentDir(qubit_point(0.25, "inf"), v=1.0)

    def test_transverse_allowed_at_infinity(self):
        t = TangentDir(qubit_point(0.25, "inf"), dk=1.0)
        assert np.array_equal(t.drho, np.diag([1, -1]))
        assert np.array_equal(assemble_drho_stack(0.25, np.array([np.inf]), 1.0, 0j), t.drho[None])

    def test_xtilde0_matches_geometry_constructor(self):
        # TangentDir.xtilde0 is geometry's constructor; both are checked against
        # U(z)^dag (d/dtheta) rho(k, z + theta v) U(z) by central differences of rho_of_kz
        from qfg.geometry import sphere_tangent_matrix
        from qfg.states import unitary_of_z

        rng = np.random.default_rng(26)
        h = 1e-6
        for _ in range(50):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v = complex(rng.normal(), rng.normal())
            t = TangentDir(qubit_point(k, z), v=v)
            u = unitary_of_z(z)
            fd = (rho_of_kz(qubit_point(k, z + h * v)).matrix - rho_of_kz(qubit_point(k, z - h * v)).matrix) / (2 * h)
            assert np.allclose(t.xtilde0, u.conj().T @ fd @ u, atol=1e-8)
            assert np.array_equal(t.xtilde0, sphere_tangent_matrix(k, z, v))

    def test_drho_is_derivative_of_rho(self):
        # the combined (dk, v) tangent against central differences of rho_of_kz
        from qfg.fisher import assemble_drho

        rng = np.random.default_rng(28)
        h = 1e-6
        points, drhos = [], []
        for _ in range(50):
            k = rng.uniform(0.02, 0.45)
            z = complex(rng.normal(), rng.normal())
            dk, v = float(rng.normal()) * 0.05, complex(rng.normal(), rng.normal())
            plus = rho_of_kz(qubit_point(k + h * dk, z + h * v)).matrix
            minus = rho_of_kz(qubit_point(k - h * dk, z - h * v)).matrix
            drho = TangentDir(qubit_point(k, z), dk=dk, v=v).drho
            assert np.allclose(drho, (plus - minus) / (2 * h), atol=1e-8)
            assert np.array_equal(drho, assemble_drho(k, z, dk, v))
            points.append((k, z, dk, v))
            drhos.append(drho)
        # every row of the stacked builder is the one-row call
        k, z, dk, v = (np.array(column) for column in zip(*points))
        assert np.array_equal(assemble_drho_stack(k, z, dk, v), np.array(drhos))

    def test_sphere_drho_is_rotated_reference_tangent(self):
        # the reference matrix tangent IS drho at the reference point
        from qfg.states import unitary_of_z

        rng = np.random.default_rng(27)
        for _ in range(50):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v = complex(rng.normal(), rng.normal())
            t = TangentDir(qubit_point(k, z), v=v)
            u = unitary_of_z(z)
            assert np.allclose(drho_sphere(k, z, v), u @ t.xtilde0 @ u.conj().T, atol=1e-12)


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

    def test_support_leak_edge(self):
        # off the support, drho weight up to SUPPORT_LEAK_TOL is zeroed in L; more leaves the support
        rho = DensityOp(np.diag([0.0, 1.0]))
        d = SUPPORT_LEAK_TOL
        assert np.array_equal(sld_solve(rho, np.diag([d, -d])), np.diag([0.0, -d]))
        d = float(np.nextafter(SUPPORT_LEAK_TOL, 1.0))
        with pytest.raises(SupportMismatch):
            sld_solve(rho, np.diag([d, -d]))


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


def test_pure_qdit_rejects_real_a1():
    with pytest.raises(DomainError):
        PureQditCoeffs(a=(0.1, 0.5))
