"""Tests for attainability analysis and the projective-measurement optimizer."""

import math

import numpy as np
import pytest

from qfg.errors import (
    DegenerateSld,
    DimensionUnsupported,
    DomainError,
    InvalidPovm,
    SupportMismatch,
    ZeroVelocityCurve,
)
from qfg.fisher import (
    Povm,
    classical_fisher,
    classical_fisher_stack,
    quantum_fisher,
)
from qfg.linalg import DensityOp, DensityStack, PAULI_X, PAULI_Y, PAULI_Z
from qfg.optimize import (
    SLD_GAP,
    attainability_check,
    bloch_vector,
    eigenprojector,
    fibonacci_sphere,
    maximize_cfi,
    maximize_cfi_stack,
    mixed_conditions_check,
    pair_outcomes,
    reach_check_pure,
    sld_eigenbasis,
    sld_eigenbasis_povm,
)
from qfg.sld import (
    ANALYTIC,
    RANK_GUARD,
    GreatCirclePure,
    TransverseCurve,
    assemble_drho,
    differentiate_curve,
    sld_solve_stack,
    walk_curve,
)
from qfg.states import Chart, qubit_point, rho_of_kz, rho_of_kz_stack


class TestPovmValidate:
    def test_projective_pair(self):
        assert len(Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])) == 2

    def test_incomplete(self):
        with pytest.raises(InvalidPovm, match="^elements sum to identity with defect 1.000e\\+00 > 1e-09$"):
            Povm([np.diag([1.0, 0.0])])

    def test_trine(self):
        elements = []
        for j in range(3):
            ang = 2 * math.pi * j / 3
            n = math.cos(ang) * PAULI_X + math.sin(ang) * PAULI_Z
            elements.append((2 / 3) * (np.eye(2) + n) / 2)
        assert len(Povm(elements)) == 3

    def test_negative_element(self):
        with pytest.raises(InvalidPovm, match="^element 1 has negative eigenvalue -5.000e-01$"):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


class TestAttainabilityCheck:
    def test_diagonal_attaining(self):
        rho = DensityOp(np.diag([0.25, 0.75]))
        report = attainability_check(rho, np.diag([1.0, -1.0]), np.diag([1.0, 0.0]))
        assert report.attains
        assert report.c == pytest.approx(4.0, abs=1e-12)
        assert report.residual <= 1e-12

    def test_sigma_y_not_attaining(self):
        curve = GreatCirclePure()
        rho = curve.rho_at(math.pi / 3)
        drho = differentiate_curve(curve, math.pi / 3)
        report = attainability_check(rho, drho, (np.eye(2) + PAULI_Y) / 2)
        assert not report.attains

    def test_zero_direction_trivially_attains(self):
        rho = rho_of_kz(qubit_point(0.3, 0.4))
        report = attainability_check(rho, np.zeros((2, 2)), np.eye(2))
        assert report.attains
        assert report.c == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_outcome_is_vacuous(self):
        rho = DensityOp(np.diag([1.0, 0.0]))
        report = attainability_check(rho, PAULI_X, np.diag([0.0, 1.0]))
        assert report.attains and report.vacuous and report.c == 0.0

    def test_element_of_the_wrong_dimension_rejected(self):
        rho = DensityOp(np.diag([0.3, 0.7]))
        with pytest.raises(DomainError, match="POVM dimension 3 does not match rho dimension 2"):
            attainability_check(rho, np.diag([0.1, -0.1]), np.eye(3) / 3)

    def test_gauge_phase_robustness(self):
        # phase-multiplied eigenvectors perturb the projector at 1e-16;
        # the check must not amplify that into a spurious failure
        rng = np.random.default_rng(50)
        for _ in range(50):
            k = rng.uniform(0.05, 0.45)
            z = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
            povm = sld_eigenbasis_povm(rho, drho)
            for m in povm:
                report = attainability_check(rho, drho, m)
                assert report.attains, report
                assert report.residual <= 1e-10


class TestReachCheckPure:
    def test_real_ratio(self):
        assert reach_check_pure([1 / math.sqrt(2), 1 / math.sqrt(2)], [0, 0.5])

    def test_imaginary_ratio(self):
        assert not reach_check_pure([1 / math.sqrt(2), 1j / math.sqrt(2)], [0, 0.5])

    def test_boundary_outcome_flagged(self):
        result = reach_check_pure([0, 1], [0, 0.5])
        assert result.attains and result.boundary

    def test_zero_overlap_attains(self):
        result = reach_check_pure([1, 0], [0, 0.5])
        assert result.attains and not result.boundary

    def test_zero_velocity_rejected(self):
        with pytest.raises(ZeroVelocityCurve):
            reach_check_pure([1, 0], [0.5j, 0])

    def test_attaining_outcomes_saturate_bound(self):
        # assemble bases from (e1 +/- w)/sqrt(2) with w aligned to the velocity,
        # completed in the orthocomplement; every outcome then passes the check
        # and the measurement saturates the bound
        from qfg.fisher import pure_qdit_fisher

        rng = np.random.default_rng(51)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=d) + 1j * rng.normal(size=d)
            a[0] = 1j * rng.normal()
            c = a[1:].conj()
            w = np.concatenate([[0], c.conj() / np.linalg.norm(c)])
            e1 = np.eye(d)[0]
            basis = [(e1 + w) / np.sqrt(2), (e1 - w) / np.sqrt(2)]
            # complete with directions orthogonal to e1 and w
            raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for col in raw.T:
                vec = col - sum(np.vdot(b, col) * b for b in basis)
                norm = np.linalg.norm(vec)
                if norm > 1e-8 and len(basis) < d:
                    basis.append(vec / norm)
            assert len(basis) == d
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=d))
            outcomes = [ph * b for ph, b in zip(phases, basis)]
            results = [reach_check_pure(xi, a) for xi in outcomes]
            assert all(r.attains for r in results)
            assert not any(r.boundary for r in results[:2])
            classical, quantum = pure_qdit_fisher(a, outcomes)
            assert classical == pytest.approx(quantum, abs=1e-8)


class TestMixedConditions:
    def test_basis_outcome_solves(self):
        report = mixed_conditions_check(1, 0, 0.25, 0)
        assert report.satisfiable
        assert report.R == pytest.approx(0.25, abs=1e-12)
        assert report.lambda_product_real

    def test_sphere_coefficient_obstructs(self):
        report = mixed_conditions_check(1, 0, 0.25, 1)
        assert not report.satisfiable

    def test_necessary_condition_flag(self):
        report = mixed_conditions_check(1, 1, 0.3, 1j)
        assert not report.lambda_product_real

    def test_rejects_zero_outcome(self):
        with pytest.raises(DomainError):
            mixed_conditions_check(0, 0, 0.25, 0)

    def test_rejects_degenerate_k(self):
        with pytest.raises(DomainError):
            mixed_conditions_check(1, 0, 0.5, 0)

    def test_residuals_have_four_entries(self):
        report = mixed_conditions_check(0.3 + 0.1j, 0.8, 0.2, 0.5 - 0.2j)
        assert len(report.residuals) == 4
        assert all(r >= 0 for r in report.residuals)


class TestSldEigenbasisPovm:
    def test_transverse_case(self):
        rho = DensityOp(np.diag([0.25, 0.75]))
        povm = sld_eigenbasis_povm(rho, np.diag([1.0, -1.0]))
        mats = sorted(povm, key=lambda m: m[0, 0].real)
        assert np.allclose(mats[0], np.diag([0, 1]), atol=1e-12)
        assert np.allclose(mats[1], np.diag([1, 0]), atol=1e-12)
        assert classical_fisher(rho, np.diag([1.0, -1.0]), povm) == pytest.approx(16 / 3)

    def test_great_circle_start(self):
        curve = GreatCirclePure()
        rho = curve.rho_at(0.0)
        drho = differentiate_curve(curve, 0.0)
        povm = sld_eigenbasis_povm(rho, drho)
        # L = 2 drho = sigma_x, so the projectors are the sigma_x eigenprojectors
        expected = (np.eye(2) + PAULI_X) / 2
        assert any(np.allclose(m, expected, atol=1e-12) for m in povm)
        assert classical_fisher(rho, drho, povm) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        rho = DensityOp(np.diag([0.25, 0.75]))
        with pytest.raises(DegenerateSld):
            sld_eigenbasis_povm(rho, np.zeros((2, 2)))

    def test_attains_generally(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            k = rng.uniform(0.05, 0.45)
            z = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
            povm = sld_eigenbasis_povm(rho, drho)
            assert classical_fisher(rho, drho, povm) == pytest.approx(
                quantum_fisher(rho, drho), abs=1e-8
            )


class TestMaximizeCfi:
    def test_great_circle(self):
        curve = GreatCirclePure()
        rho = curve.rho_at(math.pi / 3)
        drho = differentiate_curve(curve, math.pi / 3)
        result = maximize_cfi(rho, drho)
        assert result.value == pytest.approx(1.0, abs=1e-6)
        assert not result.degenerate

    def test_transverse(self):
        rho = DensityOp(np.diag([0.25, 0.75]))
        result = maximize_cfi(rho, np.diag([1.0, -1.0]))
        assert result.value == pytest.approx(16 / 3, abs=1e-6)
        assert abs(result.axis[2]) > 0.999999

    def test_degenerate_direction(self):
        rho = rho_of_kz(qubit_point(0.5, 0.3))
        result = maximize_cfi(rho, np.zeros((2, 2)))
        assert result.degenerate and result.value == 0.0

    def test_never_exceeds_quantum_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            k = rng.uniform(0.05, 0.45)
            z = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
            result = maximize_cfi(rho, drho)
            qfi = quantum_fisher(rho, drho)
            assert result.value <= qfi + 1e-9
            assert result.value >= qfi - 1e-6

    def test_pure_great_circle_stays_below_quantum_bound(self):
        # outcomes with p close to 1e-12 used to steer the search to cfi = qfi + 1.1e-4
        curve = GreatCirclePure(phase=4.958988598908727)
        theta = 1.7034558231457735
        rho, drho = curve.rho_at(theta), differentiate_curve(curve, theta)
        assert maximize_cfi(rho, drho).value <= quantum_fisher(rho, drho) + 1e-9

    @pytest.mark.parametrize("z", [None, 2.0, 0.3 + 0.2j])
    @pytest.mark.parametrize("k0", [RANK_GUARD, 1e-7, 3e-6])
    def test_nearly_pure_mixed_state_reaches_quantum_bound(self, k0, z):
        # the outcome of the small eigenvalue k0 carries nearly all of the QFI ~ 1/k0; qfi
        # and cfi each resolve k0 to about 1e-16, so they agree to about 1e-16 / k0
        curve = TransverseCurve(k0=k0) if z is None else TransverseCurve(k0=k0, coord=z, chart=Chart.NORTH)
        rho, drho = curve.rho_at(0.0), differentiate_curve(curve, 0.0)
        qfi = quantum_fisher(rho, drho)
        assert qfi * (1 - 1e-6) <= maximize_cfi(rho, drho).value <= qfi * (1 + 1e-14 / k0)

    def test_nearly_pure_states_stay_at_quantum_bound(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            k = float(10 ** rng.uniform(-9, -3))
            z = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
            qfi = quantum_fisher(rho, drho)
            result = maximize_cfi(rho, drho)
            assert qfi * (1 - 1e-6) <= result.value <= qfi * (1 + 1e-14 / k)

    def test_dimension_guard(self):
        rho = DensityOp(np.eye(3) / 3)
        with pytest.raises(DimensionUnsupported):
            maximize_cfi(rho, np.zeros((3, 3)))

    @pytest.mark.parametrize("k, z, dk, v", [
        (1e-11, -0.8485654735001487 - 1.0246504587232312j, -0.00011450421386595999,
         -0.030833039232757084 - 0.9186582761141786j),
        (1e-10, 0.3048764317242852 - 0.6758157850990335j, 9.47481900778189e-05,
         -0.578059870186302 - 2.8459316619205914j),
    ], ids=["k-1e-11", "k-1e-10"])
    def test_reaches_quantum_bound_below_rank_guard(self, k, z, dk, v):
        # k between SQRT_RANK_CUTOFF and RANK_GUARD, where a projector pair off the SLD axis
        # can lose nearly all of the QFI (0.443 of 1311.57, 14.05 of 103.82)
        rho = rho_of_kz(qubit_point(k, z))
        drho = assemble_drho(k, z, dk, v)
        qfi = quantum_fisher(rho, drho)
        assert qfi * (1 - 1e-14 / k) <= maximize_cfi(rho, drho).value <= qfi * (1 + 1e-14 / k)

    def test_reaches_quantum_bound_for_k_down_to_1e_11(self):
        # dk ~ 1e-4 keeps the sphere term a visible share of the QFI next to dk^2 / k
        rng = np.random.default_rng(56)
        for _ in range(25):
            k = float(10 ** rng.uniform(-11, -9))
            z = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, float(rng.normal()) * 1e-4, complex(rng.normal(), rng.normal()))
            qfi = quantum_fisher(rho, drho)
            assert qfi * (1 - 1e-14 / k) <= maximize_cfi(rho, drho).value <= qfi * (1 + 1e-14 / k)

    def test_direction_off_the_support_rejected(self):
        # below SUPPORT_CUTOFF rho is pure, and a mixing-weight direction leaves its support
        k = 1e-13
        rho = rho_of_kz(qubit_point(k, 0.3))
        drho = assemble_drho(k, 0.3, 0.3, 0j)
        with pytest.raises(SupportMismatch):
            quantum_fisher(rho, drho)
        with pytest.raises(SupportMismatch):
            maximize_cfi(rho, drho)

    def test_value_matches_returned_povm(self):
        rho = rho_of_kz(qubit_point(0.3, 1 + 0.5j))
        drho = assemble_drho(0.3, 1 + 0.5j, 0.2, 0.7 - 0.3j)
        result = maximize_cfi(rho, drho)
        assert result.value == classical_fisher(rho, drho, result.povm)


def _oracle_rows():
    """Qubit (rho, drho) stacks: random chart points of both charts, k = 1/2 among them, pure great circles,
    a south-chart transverse walk, and zero directions at the first rows of each chart."""
    rng = np.random.default_rng(58)
    n = 40
    k = rng.uniform(0.01, 0.5, n)
    k[:4] = 0.5
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3, n)
    g = rng.normal(size=(2 * n, 2, 2)) + 1j * rng.normal(size=(2 * n, 2, 2))
    g = (g + g.conj().swapaxes(1, 2)) / 2
    g -= np.trace(g, axis1=1, axis2=2)[:, None, None] / 2 * np.eye(2)  # traceless Hermitian directions
    g[[0, n]] = 0.0
    thetas = np.linspace(-3.0, 3.0, 25)
    walks = [walk_curve(curve, thetas, ANALYTIC, 1e-5)[:2] for curve in (
        GreatCirclePure(), GreatCirclePure(phase=0.7), TransverseCurve(0.25, 0.05, 0.3 - 2.0j, Chart.SOUTH))]
    rho = np.concatenate([rho_of_kz_stack(k, z, chart).matrices for chart in Chart] + [r.matrices for r, _ in walks])
    drho = np.concatenate([g] + [d for _, d in walks])
    return DensityStack(rho), drho


class TestMaximizeCfiStack:
    def test_pair_equals_the_sld_eigenprojectors(self):
        # the Bloch-axis pair is the SLD eigenbasis: P(+n) on the larger eigenvalue, P(-n) on the smaller
        rho, drho = _oracle_rows()
        ell = sld_solve_stack(rho, drho)
        axes, outcomes, cfi, degenerate = maximize_cfi_stack(rho, drho, ell)
        w, v, flags = sld_eigenbasis(ell)
        assert (degenerate == flags).all() and degenerate.sum() == 2
        keep = ~degenerate
        w = w[keep]
        scale = np.abs(w).max(axis=1) / (w[:, 1] - w[:, 0])  # the eigenvectors' condition
        for pair, i in ((outcomes[0], 1), (outcomes[1], 0)):
            gap = np.abs(pair - eigenprojector(v, i)).max(axis=(1, 2))[keep]
            assert (gap <= 1e-12 * scale).all()
        assert np.allclose(np.linalg.norm(axes, axis=1), 1.0, rtol=0, atol=1e-15)
        basis = classical_fisher_stack(rho, drho, [eigenprojector(v, i) for i in range(2)])
        assert np.allclose(cfi[keep], basis[keep], rtol=1e-10, atol=0)
        assert (cfi[degenerate] == 0.0).all() and (axes[degenerate] == [0.0, 0.0, 1.0]).all()

    def test_rows_equal_one_checked_row(self):
        # a row's bits are its own: maximize_cfi, the one-row case, gives them for each row of the stack
        rho, drho = _oracle_rows()
        axes, outcomes, cfi, degenerate = maximize_cfi_stack(rho, drho, sld_solve_stack(rho, drho))
        for i in range(0, len(rho), 7):
            result = maximize_cfi(rho[i], drho[i])
            assert (result.axis == axes[i]).all() and (result.povm.stack == outcomes[:, i]).all()
            assert (result.value, result.degenerate) == (cfi[i], degenerate[i])

    @pytest.mark.parametrize("exponent", [-200, -5, 0, 5, 200])
    def test_degenerate_flags_agree_off_the_gap_edge(self, exponent):
        # L = a I + r u.sigma has the gap 2 r against max|w| = |a| + r, degenerate at r ~ SLD_GAP |a| / 2;
        # each ratio c = 2 r / (SLD_GAP |a|) lies a factor of 2 or more from that edge
        rng = np.random.default_rng([59, exponent + 200])
        n = 200
        a = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n) * 10.0**exponent
        c = np.concatenate([rng.uniform(0.0, 0.5, n // 2), 2.0 * 10.0 ** rng.uniform(0.0, 3.0, n // 2)])
        c[0] = 0.0
        u = rng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        ell = a[:, None, None] * np.eye(2) + np.tensordot(c[:, None] * SLD_GAP * np.abs(a)[:, None] / 2 * u,
                                                          np.array([PAULI_X, PAULI_Y, PAULI_Z]), axes=1)
        ell = (ell + ell.conj().swapaxes(1, 2)) / 2
        rho = DensityStack(np.broadcast_to(np.eye(2) / 2, ell.shape))
        degenerate = maximize_cfi_stack(rho, np.zeros_like(ell), ell)[3]  # the flags read ell alone
        assert (degenerate == sld_eigenbasis(ell)[2]).all()
        assert (degenerate == (c <= 0.5)).all()


class TestBlochHelpers:
    def test_bloch_vector_of_paulis(self):
        assert np.allclose(bloch_vector(PAULI_X), [2, 0, 0])
        assert np.allclose(bloch_vector(np.eye(2) / 2), [0, 0, 0])

    def test_projector_pair_sums_to_identity(self):
        povm = Povm(pair_outcomes([0, 0, 1]))
        assert np.allclose(sum(np.asarray(m) for m in povm), np.eye(2))

    def test_pair_cfi_closed_form(self):
        # the identity maximize_cfi rests on: the pair along n has CFI (n.w)^2 / (1 - (n.s)^2),
        # and the SLD's Bloch axis attains the QFI
        rng = np.random.default_rng(54)
        for _ in range(50):
            k = rng.uniform(0.05, 0.45)
            z = complex(rng.normal(), rng.normal())
            rho = rho_of_kz(qubit_point(k, z))
            drho = assemble_drho(k, z, float(rng.normal()) * 0.3, complex(rng.normal(), rng.normal()))
            s, w = bloch_vector(rho.matrix), bloch_vector(drho)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            closed = (n @ w) ** 2 / (1 - (n @ s) ** 2)
            assert classical_fisher(rho, drho, Povm(pair_outcomes(n))) == pytest.approx(closed, rel=1e-12)
            axis = maximize_cfi(rho, drho).axis
            assert classical_fisher(rho, drho, Povm(pair_outcomes(axis))) == pytest.approx(
                quantum_fisher(rho, drho), rel=1e-12
            )

    def test_pair_outcome_stack_measures_every_row_with_every_axis(self):
        rng = np.random.default_rng(57)
        points = [(rng.uniform(0.05, 0.45), complex(rng.normal(), rng.normal())) for _ in range(4)]
        rhos = [rho_of_kz(qubit_point(k, z)) for k, z in points]
        drhos = [assemble_drho(k, z, 0.2, 0.5 - 0.3j) for k, z in points]
        axes = fibonacci_sphere(6)
        table = classical_fisher_stack(
            DensityStack([rho.matrix for rho in rhos]), np.array(drhos), pair_outcomes(axes)[:, :, None]
        )
        assert table.shape == (6, 4)
        for j, n in enumerate(axes):
            for i, (rho, drho) in enumerate(zip(rhos, drhos)):
                assert table[j, i] == pytest.approx(classical_fisher(rho, drho, Povm(pair_outcomes(n))), rel=1e-12)

    def test_fibonacci_sphere_is_unit(self):
        grid = fibonacci_sphere(128)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)
        # quasi-uniform: nearest-neighbor spacing stays in a narrow band
        dots = grid @ grid.T
        np.fill_diagonal(dots, -1)
        nearest = np.arccos(np.clip(dots.max(axis=1), -1, 1))
        assert nearest.max() < 3 * nearest.min()
