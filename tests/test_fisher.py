"""Tests for classical/quantum Fisher information and the Fisher tensor."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from qfg.errors import DomainError, InvalidPovm, NonFiniteResult, NotAPovm, NotNormalized
from qfg.fisher import (
    EPS_P,
    FisherTensorValue,
    Povm,
    WavefunctionGrid,
    classical_fisher,
    fisher_tensor,
    fisher_tensor_general,
    fisher_tensor_stack,
    pure_qdit_fisher,
    qfi_qubit_closed_form,
    quantum_fisher,
    quantum_fisher_of_sld,
    total_fisher_metric,
    wavefunction_fisher,
)
from qfg.linalg import DensityOp, PAULI_Y, dagger, frobenius_norms
from qfg.optimize import mixed_conditions_check, reach_check_pure
from qfg.geometry import (
    connection_coefficient,
    coordinate_forms,
    round_s3_metric,
    sphere_generator,
    sphere_tangent_matrix,
)
from qfg.sld import (
    ANALYTIC,
    GreatCirclePure,
    PureQditCoeffs,
    assemble_drho,
    assemble_drho_stack,
    differentiate_curve,
    sld_solve_stack,
    sld_transverse,
    walk_curve,
)
from qfg.states import (
    Chart,
    QubitPoint,
    chart_matrices,
    qubit_point,
    rho_of_kz,
    rho_of_kz_stack,
    s3_tangent,
    spherical_tangent,
    unitary_of_z,
)

SZ_PAIR = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
SY_PAIR = Povm([(np.eye(2) + PAULI_Y) / 2, (np.eye(2) - PAULI_Y) / 2])


class TestPovm:
    def test_completeness_required(self):
        with pytest.raises(InvalidPovm):
            Povm([np.diag([1.0, 0.0])])

    def test_psd_required(self):
        with pytest.raises(InvalidPovm):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_huge_entries_are_judged_by_their_spectrum(self):
        # eigenvalues +-1.7e308: symmetrizing the elements must not overflow them to inf first
        big = np.array([[0.5, 1.7e308], [1.7e308, 0.5]])
        with pytest.raises(InvalidPovm, match="^element 0 has negative eigenvalue -1.700e\\+308$"):
            Povm([big, np.eye(2) - big])

    def test_diagnose_reports_defect(self):
        with pytest.raises(InvalidPovm, match="^elements sum to identity with defect 1.414e-02 > 1e-09$"):
            Povm([np.diag([0.99, 0.99])])
        assert len(Povm([np.eye(2) / 2, np.eye(2) / 2])) == 2


class TestClassicalFisher:
    def test_great_circle_sz(self):
        curve = GreatCirclePure()
        rho = curve.rho_at(math.pi / 3)
        drho = differentiate_curve(curve, math.pi / 3)
        assert classical_fisher(rho, drho, SZ_PAIR) == pytest.approx(1.0, abs=1e-12)

    def test_great_circle_sy_blind(self):
        curve = GreatCirclePure()
        rho = curve.rho_at(math.pi / 3)
        drho = differentiate_curve(curve, math.pi / 3)
        assert classical_fisher(rho, drho, SY_PAIR) == pytest.approx(0.0, abs=1e-12)

    def test_zero_direction(self):
        rho = rho_of_kz(qubit_point(0.3, 0.5))
        assert classical_fisher(rho, np.zeros((2, 2)), SZ_PAIR) == 0.0

    def test_zero_probability_outcomes_skipped(self):
        rho = DensityOp(np.diag([1.0, 0.0]))
        drho = assemble_drho(0.25, 0, 0, 1)  # any traceless direction
        value = classical_fisher(rho, drho, SZ_PAIR)
        assert np.isfinite(value)

    def test_povm_of_another_dimension_rejected(self):
        # the public entry checks the dimension; classical_fisher_stack trusts it
        rho = rho_of_kz(qubit_point(0.3, 0.5))
        with pytest.raises(DomainError, match="POVM dimension 3 does not match rho dimension 2"):
            classical_fisher(rho, np.zeros((2, 2)), Povm([np.eye(3)]))


class TestQuantumFisher:
    def test_transverse_value(self):
        rho = DensityOp(np.diag([0.25, 0.75]))
        assert quantum_fisher(rho, np.diag([1.0, -1.0])) == pytest.approx(16 / 3, abs=1e-12)

    def test_great_circle_unit(self):
        curve = GreatCirclePure()
        for theta in np.linspace(0.1, 3.0, 9):
            rho = curve.rho_at(float(theta))
            drho = differentiate_curve(curve, float(theta))
            assert quantum_fisher(rho, drho) == pytest.approx(1.0, abs=1e-12)

    def test_zero_direction(self):
        rho = rho_of_kz(qubit_point(0.3, 0.5))
        assert quantum_fisher(rho, np.zeros((2, 2))) == 0.0

    def test_bound_dominates_classical(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            k = rng.uniform(0.02, 0.5)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 4)
            v = complex(rng.normal(), rng.normal())
            dk = rng.normal() * 0.4
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, dk, v)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            ns = axis[0] * np.array([[0, 1], [1, 0]]) + axis[1] * PAULI_Y + axis[2] * np.diag([1, -1])
            povm = Povm([(np.eye(2) + ns) / 2, (np.eye(2) - ns) / 2])
            assert classical_fisher(rho, drho, povm) <= quantum_fisher(rho, drho) + 1e-9


class TestClosedForm:
    def test_sphere_only(self):
        q = qfi_qubit_closed_form(0.25, 0, 0, 1)
        assert q.sphere == pytest.approx(1.0)
        assert q.transverse == 0.0
        assert q.total == pytest.approx(1.0)

    def test_degenerate(self):
        q = qfi_qubit_closed_form(0.5, 0, 0.3 + 1j, 2.0)
        assert q.sphere == 0.0
        assert q.total == 0.0

    def test_transverse_only(self):
        assert qfi_qubit_closed_form(0.25, 1, 0, 0).transverse == pytest.approx(16 / 3)

    def test_matches_general_solver(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            k = rng.uniform(0.02, 0.5)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 4)
            v = complex(rng.normal(), rng.normal())
            dk = rng.normal() * 0.4
            total = qfi_qubit_closed_form(k, dk, z, v).total
            general = quantum_fisher(rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, dk, v))
            assert total == pytest.approx(general, abs=1e-9)

    def test_k_range(self):
        with pytest.raises(DomainError):
            qfi_qubit_closed_form(0.6, 0, 0, 1)

    def test_metric_polarization(self):
        t1 = (0.2, 1 - 0.5j)
        assert total_fisher_metric(0.3, 0.4j, t1, t1) == pytest.approx(
            qfi_qubit_closed_form(0.3, 0.2, 0.4j, 1 - 0.5j).total
        )


class TestFisherTensor:
    def test_parallel_tangents(self):
        assert fisher_tensor(0.25, 0, 1, 1).value == pytest.approx(1.0)

    def test_orthogonal_tangents(self):
        value = fisher_tensor(0.25, 0, 1, 1j).value
        assert value == pytest.approx(-0.5j, abs=1e-15)

    def test_diagonal_is_real(self):
        value = fisher_tensor(0.3, 1 - 2j, 0.7 + 0.1j, 0.7 + 0.1j)
        assert value.antisym == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_split(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v1 = complex(rng.normal(), rng.normal())
            v2 = complex(rng.normal(), rng.normal())
            fwd = fisher_tensor(k, z, v1, v2)
            rev = fisher_tensor(k, z, v2, v1)
            assert fwd.sym == pytest.approx(rev.sym, abs=1e-12)
            assert fwd.antisym == pytest.approx(-rev.antisym, abs=1e-12)

    def test_real_bilinearity(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            k = rng.uniform(0.02, 0.49)
            z = complex(rng.normal(), rng.normal())
            v1, v2, v3 = (complex(rng.normal(), rng.normal()) for _ in range(3))
            a, b = rng.normal(), rng.normal()
            combo = fisher_tensor(k, z, a * v1 + b * v3, v2).value
            split = a * fisher_tensor(k, z, v1, v2).value + b * fisher_tensor(k, z, v3, v2).value
            assert combo == pytest.approx(split, abs=1e-12 * max(1, abs(split)))
            combo2 = fisher_tensor(k, z, v1, a * v2 + b * v3).value
            split2 = a * fisher_tensor(k, z, v1, v2).value + b * fisher_tensor(k, z, v1, v3).value
            assert combo2 == pytest.approx(split2, abs=1e-12 * max(1, abs(split2)))

    def test_general_matches_closed_form(self):
        rho = rho_of_kz(qubit_point(0.25, 0))
        value = fisher_tensor_general(rho, assemble_drho(0.25, 0, 0.0, 1), assemble_drho(0.25, 0, 0.0, 1j))
        assert value.value == pytest.approx(-0.5j, abs=1e-12)

    def test_diagonal_equals_qfi(self):
        rho = rho_of_kz(qubit_point(0.3, 0.7))
        drho = assemble_drho(0.3, 0.7, 0.2, 1 - 1j)
        value = fisher_tensor_general(rho, drho, drho)
        assert value.sym == pytest.approx(quantum_fisher(rho, drho), abs=1e-10)
        assert value.antisym == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_symmetry(self):
        rho = rho_of_kz(qubit_point(0.3, 0.7))
        d1 = assemble_drho(0.3, 0.7, 0.2, 1 - 1j)
        d2 = assemble_drho(0.3, 0.7, -0.1, 0.4 + 2j)
        fwd = fisher_tensor_general(rho, d1, d2).value
        rev = fisher_tensor_general(rho, d2, d1).value
        assert fwd == pytest.approx(rev.conjugate(), abs=1e-12)

    def test_degenerate_state_is_real(self):
        rho = DensityOp(np.eye(2) / 2)
        d1 = np.array([[0.1, 0.2 + 0.3j], [0.2 - 0.3j, -0.1]])
        d2 = np.array([[-0.2, 0.5j], [-0.5j, 0.2]])
        assert fisher_tensor_general(rho, d1, d2).antisym == pytest.approx(0.0, abs=1e-12)

    def test_weighting_of_the_pure_pair(self):
        # the mixed-chart tensor is the pure Fubini-Study/KKS pair weighted by (k1-k2)^2 and (k1-k2)^3
        rng = np.random.default_rng(38)
        for _ in range(200):
            k = rng.uniform(0.02, 0.5)
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 3)
            v1, v2 = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            tensor, pure = fisher_tensor(k, z, v1, v2), coordinate_forms(z, v1, v2)
            assert tensor.sym == pytest.approx((1 - 2 * k) ** 2 * pure.g, rel=1e-12)
            assert tensor.antisym == pytest.approx((1 - 2 * k) ** 3 * pure.omega, rel=1e-12)

    def test_value_container(self):
        v = FisherTensorValue(3.0 - 2.0j)
        assert v.sym == 3.0 and v.antisym == -2.0


class TestPureQditFisher:
    def test_attaining_pair(self):
        outcomes = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
        classical, quantum = pure_qdit_fisher([0, 0.5], outcomes)
        assert classical == pytest.approx(1.0, abs=1e-12)
        assert quantum == pytest.approx(1.0, abs=1e-12)

    def test_quantum_value_d3(self):
        outcomes = [np.eye(3)[i] for i in range(3)]
        _, quantum = pure_qdit_fisher([0.3j, 0.5, 0.2j], outcomes)
        assert quantum == pytest.approx(1.16, abs=1e-12)

    def test_no_orthogonal_motion(self):
        outcomes = [np.eye(2)[i] for i in range(2)]
        classical, quantum = pure_qdit_fisher([0.4j, 0.0], outcomes)
        assert classical == 0.0 and quantum == 0.0

    def test_completeness_enforced(self):
        with pytest.raises(NotAPovm):
            pure_qdit_fisher([0, 0.5], [np.array([1, 0]) / 2, np.array([0, 1]) / 2])

    def test_imaginary_a1_enforced(self):
        with pytest.raises(DomainError):
            pure_qdit_fisher([0.3, 0.5], [np.eye(2)[0], np.eye(2)[1]])

    def test_bound_over_random_draws(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=d) + 1j * rng.normal(size=d)
            a[0] = 1j * rng.normal()
            g = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
            q, _ = np.linalg.qr(g)
            classical, quantum = pure_qdit_fisher(a, list(q[:, :d]))
            assert classical <= quantum + 1e-9


class TestWavefunctionFisher:
    def test_two_outcome_example(self):
        grid = WavefunctionGrid(x=[0, 1], p=[0.5, 0.5], alpha=[0, 0], dp=[-0.5, 0.5], dalpha=[0, 0])
        assert wavefunction_fisher(grid) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_phase_contribution(self):
        grid = WavefunctionGrid(x=[0, 1], p=[0.5, 0.5], alpha=[0, 0], dp=[-0.5, 0.5], dalpha=[0, 1])
        classical, quantum = wavefunction_fisher(grid)
        assert classical == pytest.approx(1.0)
        assert quantum == pytest.approx(1.25)

    def test_constant_density(self):
        grid = WavefunctionGrid(x=[0, 1, 2, 3], p=[0.25] * 4, alpha=[0] * 4, dp=[0] * 4, dalpha=[0] * 4)
        assert wavefunction_fisher(grid) == (0.0, 0.0)

    def test_normalization_enforced(self):
        with pytest.raises(NotNormalized):
            WavefunctionGrid(x=[0, 1], p=[0.5, 0.6], alpha=[0, 0], dp=[0, 0], dalpha=[0, 0])

    def test_uniform_grid_enforced(self):
        with pytest.raises(NotNormalized):
            WavefunctionGrid(x=[0, 1, 3], p=[0.25, 0.5, 0.25], alpha=[0] * 3, dp=[0] * 3, dalpha=[0] * 3)

    def test_negative_probability_rejected(self):
        with pytest.raises(NotNormalized):
            WavefunctionGrid(x=[0, 1], p=[1.1, -0.1], alpha=[0, 0], dp=[0, 0], dalpha=[0, 0])

    def test_quantum_at_least_classical(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            dx = float(rng.uniform(0.1, 1.5))
            p = rng.uniform(0.05, 1.0, size=n)
            p /= p.sum() * dx
            grid = WavefunctionGrid(
                x=np.arange(n) * dx,
                p=p,
                alpha=rng.normal(size=n),
                dp=rng.normal(size=n),
                dalpha=rng.normal(size=n),
            )
            classical, quantum = wavefunction_fisher(grid)
            assert quantum >= classical - 1e-12


def test_mixing_suppression_against_pure_family():
    from qfg.states import PureState, pure_projector, unitary_of_z

    rng = np.random.default_rng(36)
    for _ in range(100):
        k = rng.uniform(0.02, 0.5)
        z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 3)
        v = complex(rng.normal(), rng.normal())
        mixed = quantum_fisher(rho_of_kz(qubit_point(k, z)), assemble_drho(k, z, 0.0, v))
        psi = PureState(unitary_of_z(z)[:, 1])
        pure = quantum_fisher(pure_projector(psi), assemble_drho_stack(0.0, np.array([z]), 0.0, v)[0])
        assert mixed == pytest.approx((1 - 2 * k) ** 2 * pure, abs=1e-9)


def test_eps_p_constant():
    assert EPS_P == 1e-12


@pytest.mark.parametrize("p0, counted", [
    (np.nextafter(EPS_P, 1.0), True),
    (EPS_P, False),
    (np.nextafter(EPS_P, 0.0), False),
], ids=["just-above", "at", "just-below"])
def test_eps_p_edge(p0, counted):
    # an outcome of probability p > EPS_P adds dp^2 / p; one at or below it adds nothing
    dp = 1e-7
    value = classical_fisher(DensityOp(np.diag([p0, 1.0 - p0])), np.diag([dp, -dp]), SZ_PAIR)
    expected = dp * dp / (1.0 - p0) + (dp * dp / p0 if counted else 0.0)
    assert value == pytest.approx(expected, rel=1e-12)


def _grid(dp, dalpha):
    return WavefunctionGrid(x=[0, 1], p=[0.5, 0.5], alpha=[0, 0], dp=dp, dalpha=dalpha)


@pytest.mark.parametrize("call", [
    lambda: qfi_qubit_closed_form(0.25, 0.0, 1e200, 1),
    lambda: qfi_qubit_closed_form(0.25, 0.0, 0, 1e200),
    lambda: coordinate_forms(1e200, 1, 1),
    lambda: total_fisher_metric(0.25, 1e200, (0.1, 1), (0.1, 1)),
    lambda: fisher_tensor(0.25, 1e200, 1, 1),
    lambda: sld_transverse(0.25, 1, 1e200),
    lambda: connection_coefficient(1e200),
    lambda: spherical_tangent(1e200, 1),
    lambda: mixed_conditions_check(1e200, 1, 0.25, 1),
    lambda: mixed_conditions_check(1, 1, 0.25, 1e300),
    lambda: wavefunction_fisher(_grid([-0.5, 1e200], [0, 0])),
    lambda: wavefunction_fisher(_grid([-0.5, 0.5], [0, 1e200])),
    lambda: qfi_qubit_closed_form(0.25, 1e200, 0, 0),
    lambda: total_fisher_metric(0.25, 0, (1e200, 0), (1e200, 0)),
    lambda: fisher_tensor(0.25, 0, 1e200, 1e200),
    lambda: sld_transverse(0.25, 1e308, 1e-300),
    lambda: pure_qdit_fisher([0, 1e200], np.eye(2)),
    lambda: spherical_tangent(1e-200, 1),
    lambda: mixed_conditions_check(1, 1, 0.25, 1e154),
    lambda: s3_tangent(QubitPoint(0.25, 1e-320, Chart.SOUTH), 0.1, 1),
], ids=["qfi_qubit_closed_form", "qfi_qubit_closed_form-v", "coordinate_forms", "total_fisher_metric",
        "fisher_tensor", "sld_transverse", "connection_coefficient", "spherical_tangent",
        "mixed_conditions_check-xi1", "mixed_conditions_check-lam", "wavefunction_fisher-dp",
        "wavefunction_fisher-dalpha", "qfi_qubit_closed_form-dk", "total_fisher_metric-dk", "fisher_tensor-v-v2",
        "sld_transverse-dk", "pure_qdit_fisher", "spherical_tangent-z-underflow", "mixed_conditions_check-denom-sum",
        "s3_tangent-z-overflow"])
def test_closed_form_overflow_raises_non_finite_result(call):
    with pytest.raises(NonFiniteResult):
        call()


@pytest.mark.parametrize("call", [
    lambda: total_fisher_metric(0.25, math.inf, (0.1, 1), (0.1, 1)),
    lambda: sphere_tangent_matrix(0.25, math.inf, 1),
    lambda: fisher_tensor(0.25, 0, math.nan, 1),
    lambda: fisher_tensor(0.25, 0, 1, math.inf),
    lambda: qfi_qubit_closed_form(0.25, 0.1, math.nan, 1),
    lambda: qfi_qubit_closed_form(0.25, 0.1, 0, math.nan),
    lambda: coordinate_forms(complex(0, math.inf), 1, 1),
    lambda: connection_coefficient(math.nan),
    lambda: sld_transverse(0.25, 1, math.nan),
    lambda: spherical_tangent(math.inf, 1),
    lambda: mixed_conditions_check(math.nan, 1, 0.25, 1),
    lambda: mixed_conditions_check(1, 1, 0.25, math.inf),
], ids=["total_fisher_metric-z", "sphere_tangent_matrix-z", "fisher_tensor-v", "fisher_tensor-v2",
        "qfi_qubit_closed_form-z", "qfi_qubit_closed_form-v", "coordinate_forms-z", "connection_coefficient-z",
        "sld_transverse-z", "spherical_tangent-z", "mixed_conditions_check-xi1", "mixed_conditions_check-lam"])
def test_non_finite_chart_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def _guarded_calls(rng) -> dict:
    """Finite, valid arguments for each function that carries ``errors.finite_closed_form``."""
    k, dk, dk2 = rng.uniform(0.05, 0.45), rng.normal(), rng.normal()
    z, v, v2, lam = (complex(rng.normal(), rng.normal()) for _ in range(4))
    a = [1j * rng.normal(), complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())]
    unitary = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    p = rng.uniform(0.1, 1.0, size=4)
    grid = WavefunctionGrid(x=np.arange(4.0), p=p / p.sum(), alpha=rng.normal(size=4), dp=rng.normal(size=4),
                            dalpha=rng.normal(size=4))
    chart_velocities = [tuple(rng.normal(size=3).tolist()) for _ in range(2)]
    return {
        qfi_qubit_closed_form: (k, dk, z, v),
        total_fisher_metric: (k, z, (dk, v), (dk2, v2)),
        fisher_tensor: (k, z, v, v2),
        pure_qdit_fisher: (a, list(unitary)),
        wavefunction_fisher: (grid,),
        coordinate_forms: (z, v, v2),
        connection_coefficient: (z,),
        sphere_tangent_matrix: (k, z, v),
        sphere_generator: (z, v),
        round_s3_metric: (rng.uniform(0, 1.5), rng.uniform(0, math.pi), rng.uniform(0, 6), *chart_velocities),
        unitary_of_z: (z,),
        spherical_tangent: (z, v),
        s3_tangent: (QubitPoint(k, z), dk, v),
        sld_transverse: (k, dk, z),
        assemble_drho: (k, z, dk, v),
        mixed_conditions_check: (v, v2, k, lam),
        reach_check_pure: (list(unitary[0]), a),
    }


GUARDED = list(_guarded_calls(np.random.default_rng(0)))


def _leaf_paths(x, path=()):
    """Paths to the numbers inside an argument: through tuples, lists, arrays and dataclass fields."""
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _leaf_paths(getattr(x, f.name), path + (f.name,))
    elif isinstance(x, (tuple, list, np.ndarray)):
        for i, item in enumerate(x):
            yield from _leaf_paths(item, path + (i,))
    elif isinstance(x, (int, float, complex)):
        yield path


def _replaced(x, path, value):
    """A copy of x with the number at ``path`` replaced; dataclass fields are set past their own checks."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if dataclasses.is_dataclass(x):
        out = copy.copy(x)
        object.__setattr__(out, head, _replaced(getattr(x, head), rest, value))
        return out
    out = x.copy() if isinstance(x, np.ndarray) else list(x)
    out[head] = _replaced(x[head], rest, value)
    return out if isinstance(x, (list, np.ndarray)) else type(x)(out)


@pytest.mark.parametrize("fn", GUARDED, ids=[fn.__name__ for fn in GUARDED])
def test_non_finite_argument_is_a_domain_error(fn):
    args = _guarded_calls(np.random.default_rng(0))[fn]
    accepted = []
    for i, arg in enumerate(args):
        for path in _leaf_paths(arg):
            for bad in (math.nan, math.inf):
                try:
                    fn(*args[:i], _replaced(arg, path, bad), *args[i + 1:])
                except DomainError:
                    continue
                accepted.append((i, path, bad))
    assert accepted == []


def test_finite_results_keep_their_bits():
    for seed in range(20):
        for fn, args in _guarded_calls(np.random.default_rng(seed)).items():
            assert pickle.dumps(fn(*args)) == pickle.dumps(fn.__wrapped__(*args)), (seed, fn.__name__)


def _assert_sld_identity(rho, drho, slack=0.0):
    """quantum_fisher_of_sld's pairing Tr[drho L] is Tr[rho L^2], the tensor's real diagonal, within 1e-12 max(1, qfi).

    ``slack`` times 4 eps ||rho||_F ||L||_F^2, the rounding of Tr[rho L^2], is added to the bound.
    """
    ell = sld_solve_stack(rho, drho)
    qfi = quantum_fisher_of_sld(drho, ell)
    diagonal = np.maximum(fisher_tensor_stack(rho, ell[:, None])[:, 0, 0].real, 0.0)
    rounding = 4 * np.finfo(float).eps * frobenius_norms(rho.matrices) * frobenius_norms(ell) ** 2
    assert (np.abs(qfi - diagonal) <= 1e-12 * np.maximum(1.0, qfi) + slack * rounding).all()
    return qfi


class TestSldIdentity:
    """The QFI as the pairing Tr[drho L] equals Tr[rho L^2] by the SLD equation drho = (rho L + L rho) / 2."""

    @pytest.mark.parametrize("chart", list(Chart))
    def test_both_charts(self, chart):
        rng = np.random.default_rng(31 + list(Chart).index(chart))
        n = 400
        k = rng.uniform(1e-3, 0.5, n)
        coord = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 2, n)
        x = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        drho = (x + dagger(x)) / 2
        drho[:, [0, 1], [0, 1]] = (drho[:, 0, 0] - drho[:, 1, 1])[:, None] * [0.5, -0.5]  # traceless
        _assert_sld_identity(rho_of_kz_stack(k, coord, chart), drho)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_pure_flows(self, d):
        rng = np.random.default_rng(40 + d)
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        a[0] = 1j * rng.normal()
        rho, drho, _ = walk_curve(PureQditCoeffs(a=tuple(a)), rng.uniform(-np.pi, np.pi, 200), ANALYTIC, 1e-5)
        qfi = _assert_sld_identity(rho, drho)
        assert np.allclose(qfi, 4.0 * np.sum(np.abs(a[1:]) ** 2), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("chart", list(Chart))
    def test_transverse_rows_down_to_small_k(self, chart):
        # below a curve's rank guard (1e-9): the chart points and their transverse tangent, the (1, -1) chart matrix.
        # Where rho is diagonal (coord 0) Tr[rho L^2] is exact too; elsewhere it rounds as ||rho|| ||L||^2 ~ 1 / k^2
        # while the pairing stays within a few ulps of the closed form 1 / (k (1 - k)), k = 1e-11 included
        k = 10.0 ** np.linspace(-11, np.log10(0.5), 120)
        for coord, slack in ((0j, 0.0), (0.7 - 1.3j, 1.0), (30 + 2j, 1.0)):
            coords = np.full(len(k), coord)
            rho, drho = rho_of_kz_stack(k, coords, chart), chart_matrices(1.0, -1.0, coords, chart)
            qfi = _assert_sld_identity(rho, drho, slack)
            assert np.allclose(qfi, 1.0 / (k * (1.0 - k)), rtol=4 * np.finfo(float).eps, atol=0.0)
