"""Tests for the dense complex matrix primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfg.errors import DimensionMismatch, NonHermitianInput, NotNormalized, NotPositiveSemidefinite
from qfg.linalg import (
    SQRT_RANK_CUTOFF,
    DensityOp,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    comm_anticomm,
    dagger,
    frobenius_inner,
    frobenius_norms,
    herm_eigen,
    hermitian_part,
    psd_sqrt,
    require_hermitian,
)


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def _stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _hermitian_stack(rng, shape):
    x = _stack(rng, shape)
    return (x + dagger(x)) / 2  # exactly Hermitian


@pytest.mark.parametrize("d", range(2, 9))
class TestFrobeniusInner:
    """frobenius_inner(h, a) is Tr[h a] for exactly Hermitian h, with each row's bits its own."""

    @staticmethod
    def _assert_trace_of_product(h, a, got):
        want = np.trace(h @ a, axis1=-2, axis2=-1)
        assert got.shape == want.shape
        # relative to the Cauchy-Schwarz bound ||h||_F ||a||_F on |Tr[h a]|
        scale = frobenius_norms(h) * frobenius_norms(a)
        assert (np.abs(got - want) <= 1e-13 * scale).all()

    def test_stack(self, d):
        rng = np.random.default_rng(400 + d)
        h, a = _hermitian_stack(rng, (64, d, d)), _stack(rng, (64, d, d))
        self._assert_trace_of_product(h, a, frobenius_inner(h, a))

    def test_broadcast_element(self, d):
        rng = np.random.default_rng(500 + d)
        h, m = _hermitian_stack(rng, (64, d, d)), _stack(rng, (1, d, d))
        self._assert_trace_of_product(h, m, frobenius_inner(h, m))
        assert (frobenius_inner(h, m) == frobenius_inner(h, np.repeat(m, 64, axis=0))).all()

    def test_certificate_shape(self, d):
        # k POVM elements against n states, (k, 1, d, d) x (n, d, d) -> (k, n)
        rng = np.random.default_rng(600 + d)
        h, m = _hermitian_stack(rng, (16, d, d)), _stack(rng, (5, 1, d, d))
        got = frobenius_inner(h, m)
        self._assert_trace_of_product(h, m, got)
        assert (got == np.array([frobenius_inner(h, m[j]) for j in range(5)])).all()

    def test_row_bits_do_not_depend_on_stack_size(self, d):
        rng = np.random.default_rng(700 + d)
        h, a = _hermitian_stack(rng, (2048, d, d)), _stack(rng, (2048, d, d))
        full, seven = frobenius_inner(h, a), frobenius_inner(h[:7], a[:7])
        singles = np.array([frobenius_inner(h[i : i + 1], a[i : i + 1])[0] for i in range(7)])
        assert (full[:7] == seven).all() and (seven == singles).all()

    def test_general_left_operand_is_conjugated(self, d):
        rng = np.random.default_rng(800 + d)
        x, a = _stack(rng, (8, d, d)), _stack(rng, (8, d, d))
        self._assert_trace_of_product(dagger(x), a, frobenius_inner(x, a))


class TestHermEigen:
    def test_diagonal_input(self):
        w, v = herm_eigen(np.diag([0.75, 0.25]))
        assert np.allclose(w, [0.25, 0.75])
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_sigma_x_closed_form(self):
        w, v = herm_eigen(PAULI_X)
        assert np.allclose(w, [-1, 1])
        # eigenvectors are defined up to phase; compare projectors
        for i, lam in enumerate(w):
            proj = np.outer(v[:, i], v[:, i].conj())
            assert np.allclose(PAULI_X @ proj, lam * proj, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_identity(self, dim):
        w, v = herm_eigen(np.eye(dim))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_reconstruction_and_unitarity(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(100):
            m = random_hermitian(rng, dim)
            w, v = herm_eigen(m)
            scale = max(1.0, np.linalg.norm(m))
            assert np.linalg.norm((v * w) @ v.conj().T - m) <= 1e-10 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(w) >= -1e-14)

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_eigenvalues_match_numpy(self, dim):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = random_hermitian(rng, dim)
            w, _ = herm_eigen(m)
            assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            herm_eigen(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(NonHermitianInput):
            herm_eigen(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
        assert np.allclose(psd_sqrt(np.diag([0.25, 0.75])), np.diag([0.5, np.sqrt(3) / 2]))

    def test_projector_is_fixed_point(self):
        p = np.outer([1, 1j], np.conj([1, 1j])) / 2
        assert np.allclose(psd_sqrt(p), p, atol=1e-12)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = rng.integers(2, 5)
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = x @ x.conj().T
            root = psd_sqrt(m)
            assert np.linalg.norm(root @ root - m) <= 1e-9 * max(1, np.linalg.norm(m))

    def test_clamps_tiny_negative(self):
        root = psd_sqrt(np.diag([-5e-11, 1.0]))
        assert np.allclose(root, np.diag([0.0, 1.0]), atol=1e-5)

    def test_rank_cutoff_edge(self):
        # an eigenvalue at SQRT_RANK_CUTOFF * max(1, lam_max) counts as zero; one at twice that is kept
        assert np.array_equal(psd_sqrt(np.diag([SQRT_RANK_CUTOFF, 1.0])), np.diag([0.0, 1.0]))
        kept = psd_sqrt(np.diag([2 * SQRT_RANK_CUTOFF, 1.0]))
        assert kept[0, 0] == pytest.approx(np.sqrt(2 * SQRT_RANK_CUTOFF), rel=1e-12)
        assert kept[1, 1] == 1.0

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveSemidefinite):
            psd_sqrt(np.diag([-1e-3, 1.0]))


class TestCommAnticomm:
    def test_pauli_algebra(self):
        comm, anti = comm_anticomm(PAULI_X, PAULI_Y)
        assert np.allclose(comm, 2j * PAULI_Z)
        assert np.allclose(anti, 0)

    def test_self_bracket(self):
        a = np.array([[1, 2j], [-2j, 3]])
        comm, anti = comm_anticomm(a, a)
        assert np.allclose(comm, 0)
        assert np.allclose(anti, 2 * a @ a)

    def test_identity_commutes(self):
        b = np.array([[1, 2], [3, 4]], dtype=complex)
        comm, anti = comm_anticomm(np.eye(2), b)
        assert np.allclose(comm, 0)
        assert np.allclose(anti, 2 * b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            comm_anticomm(np.eye(2), np.eye(3))


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
    arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
)
def test_trace_cyclicity(a_re, b_re):
    a = a_re + 1j * a_re.T
    b = b_re - 1j * b_re.T
    assert np.trace(a @ b) == pytest.approx(np.trace(b @ a), abs=1e-12 * max(1, abs(np.trace(a @ b))))


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5)))
def test_hermitian_part_accepted(x):
    m = x + x.T + 1j * (x - x.T)
    w, v = herm_eigen(m)
    assert np.linalg.norm((v * w) @ v.conj().T - m) <= 1e-10 * max(1.0, np.linalg.norm(m))


class TestDensityOp:
    def test_cached_eigendecomposition(self):
        rho = DensityOp(np.diag([0.25, 0.75]))
        assert np.allclose(rho.eigenvalues, [0.25, 0.75])
        assert np.allclose(rho.sqrt, np.diag([0.5, np.sqrt(0.75)]))

    def test_trace_enforced(self):
        with pytest.raises(NotNormalized):
            DensityOp(np.diag([0.5, 0.6]))

    def test_psd_enforced(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityOp(np.diag([1.2, -0.2]))

    def test_hermitian_enforced(self):
        with pytest.raises(NonHermitianInput):
            DensityOp(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))

    def test_matrix_is_readonly(self):
        rho = DensityOp(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


def test_require_hermitian_symmetrizes():
    m = np.array([[1.0, 1 + 1e-14j], [1 - 1e-14j, 2.0]])
    out = require_hermitian(m)
    assert np.allclose(out, out.conj().T)


def test_hermitian_check_survives_huge_entries():
    # the Frobenius norms of these rows overflow to inf unless they are scaled first
    with pytest.raises(NonHermitianInput):
        hermitian_part(np.array([[[0.5, 1e200], [0, 0.5]]]))
    m = np.array([[[0.5, 1e200], [1e200, 0.5]]])
    assert (hermitian_part(m) == m).all()
