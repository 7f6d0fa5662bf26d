"""Tests for the Kahler pairings, complex structure, and metric identities."""

import math

import numpy as np
import pytest

from qfg.errors import DomainError, NotOrthogonal, NotTangentForm
from qfg.fisher import fisher_tensor, quantum_fisher
from qfg.geometry import (
    complex_structure,
    connection_coefficient,
    coordinate_forms,
    fs_kks_at,
    g_kks,
    hermitian_form_pullback,
    k_generator,
    reference_density,
    round_s3_metric,
    sphere_tangent_matrix,
)
from qfg.linalg import DensityOp, PAULI_X, PAULI_Y
from qfg.states import (
    PureState,
    chart_convert,
    pure_projector,
    qubit_point,
    s3_tangent,
    spherical_tangent,
)
from qfg.fisher import total_fisher_metric


def random_orthogonal_pair(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    chi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    chi -= np.vdot(psi, chi) * psi
    return psi, chi


class TestKGenerator:
    def test_real_displacement(self):
        k, x = k_generator(np.array([1, 0]), np.array([0, 1]))
        assert np.allclose(k, PAULI_Y)
        assert np.allclose(x, PAULI_X)

    def test_zero_displacement(self):
        k, x = k_generator(np.array([1, 0]), np.array([0, 0]))
        assert np.allclose(k, 0) and np.allclose(x, 0)

    def test_imaginary_displacement(self):
        k, x = k_generator(np.array([1, 0]), np.array([0, 1j]))
        assert np.allclose(k, -PAULI_X)
        assert np.allclose(x, PAULI_Y)

    def test_commutator_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            psi, chi = random_orthogonal_pair(rng, dim)
            k, x = k_generator(psi, chi)
            rho = np.outer(psi, psi.conj())
            assert np.linalg.norm(x - (-1j) * (k @ rho - rho @ k)) <= 1e-12

    def test_orthogonality_enforced(self):
        with pytest.raises(NotOrthogonal):
            k_generator(np.array([1, 0]), np.array([0.5, 1]))


class TestFsKksAt:
    def test_pure_state_identification(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            psi, chi1 = random_orthogonal_pair(rng, dim)
            _, chi2 = random_orthogonal_pair(rng, dim)
            chi2 -= np.vdot(psi, chi2) * psi
            k1, _ = k_generator(psi, chi1)
            k2, _ = k_generator(psi, chi2)
            pair = fs_kks_at(DensityOp(np.outer(psi, psi.conj())), k1, k2)
            overlap = complex(np.vdot(chi1, chi2))
            assert pair.g == pytest.approx(overlap.real, abs=1e-10)
            assert pair.omega == pytest.approx(overlap.imag, abs=1e-10)

    def test_basis_displacement_pairings(self):
        rho = DensityOp(np.diag([1.0, 0.0]))
        k1, _ = k_generator(np.array([1, 0]), np.array([0, 1]))
        k2, _ = k_generator(np.array([1, 0]), np.array([0, 1j]))
        assert fs_kks_at(rho, k1, k2) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
        assert fs_kks_at(rho, k1, k1) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))

    def test_pure_qfi_is_twice_self_pairing(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            psi, chi = random_orthogonal_pair(rng, dim)
            k, x = k_generator(psi, chi)
            rho = pure_projector(PureState(psi))
            qfi = quantum_fisher(rho, x)
            pairing = fs_kks_at(rho, k, k)
            assert qfi == pytest.approx(2 * np.trace(rho.matrix @ (2 * k @ k)).real, abs=1e-9)
            assert qfi == pytest.approx(4 * pairing.g, abs=1e-9)


class TestCoordinateForms:
    def test_metric_at_origin(self):
        assert coordinate_forms(0, 1, 1) == (pytest.approx(4.0), pytest.approx(0.0, abs=1e-15))

    def test_orientation_convention(self):
        pair = coordinate_forms(0, 1, 1j)
        assert pair.g == pytest.approx(0.0, abs=1e-15)
        assert pair.omega == pytest.approx(-4.0)

    def test_zero_tangent(self):
        assert coordinate_forms(0.3 + 1j, 1 - 1j, 0) == (0.0, 0.0)

    def test_matches_round_sphere_through_chart(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 0.1:
                continue
            v1 = complex(rng.normal(), rng.normal())
            v2 = complex(rng.normal(), rng.normal())
            point = qubit_point(0.2, z)
            theta, phi = chart_convert(point, "spherical")
            t1 = spherical_tangent(z, v1)
            t2 = spherical_tangent(z, v2)
            expected = t1[0] * t2[0] + math.sin(theta) ** 2 * t1[1] * t2[1]
            assert coordinate_forms(z, v1, v2).g == pytest.approx(expected, abs=1e-8)


class TestComplexStructure:
    def test_definition(self):
        xt = sphere_tangent_matrix(0.25, 0, 1)
        assert np.allclose(complex_structure(xt), sphere_tangent_matrix(0.25, 0, 1j))

    def test_square_is_minus_one(self):
        xt = sphere_tangent_matrix(0.3, 1 - 2j, 0.4 + 0.2j)
        assert np.allclose(complex_structure(complex_structure(xt)), -xt, atol=1e-14)

    def test_complex_velocity(self):
        xt = sphere_tangent_matrix(0.25, 0, 1 + 1j)
        assert np.allclose(complex_structure(xt), sphere_tangent_matrix(0.25, 0, -1 + 1j))

    def test_rejects_non_tangent(self):
        with pytest.raises(NotTangentForm):
            complex_structure(np.diag([1.0, -1.0]))


class TestGKks:
    def test_reference_value(self):
        xt = sphere_tangent_matrix(0.25, 0, 1)
        assert g_kks(reference_density(0.25), xt, xt) == pytest.approx(-0.125, abs=1e-15)

    def test_orthogonal_velocities(self):
        xt1 = sphere_tangent_matrix(0.25, 0, 1)
        xt2 = sphere_tangent_matrix(0.25, 0, 1j)
        assert g_kks(reference_density(0.25), xt1, xt2) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v1 = complex(rng.normal(), rng.normal())
            v2 = complex(rng.normal(), rng.normal())
            value = g_kks(
                reference_density(k),
                sphere_tangent_matrix(k, z, v1),
                sphere_tangent_matrix(k, z, v2),
            )
            lam2 = abs(connection_coefficient(z)) ** 2
            expected = (2 * k - 1) ** 3 * lam2 * (v1.conjugate() * v2).real
            assert value == pytest.approx(expected, abs=1e-10)

    def test_proportional_to_tensor_metric_part(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v1 = complex(rng.normal(), rng.normal())
            v2 = complex(rng.normal(), rng.normal())
            tensor = fisher_tensor(k, z, v1, v2)
            gk = g_kks(
                reference_density(k),
                sphere_tangent_matrix(k, z, v1),
                sphere_tangent_matrix(k, z, v2),
            )
            assert (2 * k - 1) * tensor.sym == pytest.approx(4 * gk, abs=1e-10)


class TestMatchedTangentIdentities:
    def test_antisymmetric_and_symmetric(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v1 = complex(rng.normal(), rng.normal())
            v2 = complex(rng.normal(), rng.normal())
            value = fisher_tensor(k, z, v1, v2).value
            rho0 = reference_density(k).matrix
            x1 = sphere_tangent_matrix(k, z, v1)
            x2 = sphere_tangent_matrix(k, z, v2)
            comm = x1 @ x2 - x2 @ x1
            anti = x1 @ x2 + x2 @ x1
            assert value.imag / 4 == pytest.approx((-0.5j * np.trace(rho0 @ comm)).real, abs=1e-10)
            assert value.real / 4 == pytest.approx((0.5 * np.trace(rho0 @ anti)).real, abs=1e-10)


class TestRoundS3Metric:
    def test_transverse_unit_speed(self):
        assert round_s3_metric(0.3, 1.0, 2.0, (1, 0, 0), (1, 0, 0)) == pytest.approx(1.0)

    def test_latitude_factor(self):
        assert round_s3_metric(math.pi / 6, 1.0, 0.5, (0, 1, 0), (0, 1, 0)) == pytest.approx(0.25)

    def test_equatorial_azimuth(self):
        value = round_s3_metric(math.pi / 2 - 1e-12, math.pi / 2, 1.0, (0, 0, 1), (0, 0, 1))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            round_s3_metric(2.0, 1.0, 1.0, (1, 0, 0), (1, 0, 0))
        with pytest.raises(DomainError):
            round_s3_metric(0.3, 4.0, 1.0, (1, 0, 0), (1, 0, 0))

    def test_pullback_equals_total_metric(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            k = rng.uniform(0.01, 0.49)
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 0.1:
                continue
            point = qubit_point(k, z)
            t1 = (float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
            t2 = (float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
            theta, phi = chart_convert(point, "spherical")
            pushed = round_s3_metric(
                point.psi_angle,
                theta,
                phi % (2 * math.pi),
                s3_tangent(point, *t1),
                s3_tangent(point, *t2),
            )
            assert total_fisher_metric(k, z, t1, t2) == pytest.approx(pushed, abs=1e-8)


class TestHermitianFormPullback:
    def test_matches_generator_pairing(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            psi, chi1 = random_orthogonal_pair(rng, dim)
            _, chi2 = random_orthogonal_pair(rng, dim)
            chi2 -= np.vdot(psi, chi2) * psi
            a1, a2 = 1j * rng.normal(), 1j * rng.normal()
            dpsi1 = a1 * psi + chi1
            dpsi2 = a2 * psi + chi2
            h = hermitian_form_pullback(psi, dpsi1, dpsi2)
            k1, _ = k_generator(psi, chi1)
            k2, _ = k_generator(psi, chi2)
            pair = fs_kks_at(DensityOp(np.outer(psi, psi.conj())), k1, k2)
            assert h.real == pytest.approx(pair.g, abs=1e-9)
            assert h.imag == pytest.approx(pair.omega, abs=1e-9)

    def test_scale_invariance(self):
        psi = np.array([1.0, 1j]) / np.sqrt(2)
        dpsi = np.array([0.2, -0.3j])
        assert hermitian_form_pullback(3 * psi, 3 * dpsi, 3 * dpsi) == pytest.approx(
            hermitian_form_pullback(psi, dpsi, dpsi)
        )
