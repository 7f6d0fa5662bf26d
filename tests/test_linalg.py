"""Tests for the dense complex matrix primitives."""

import decimal
import itertools
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfg.errors import DimensionMismatch, NonHermitianInput, NotNormalized, NotPositiveSemidefinite
import qfg.linalg
from qfg.linalg import (
    HERMITIAN_RTOL,
    IDENTITY2,
    SQRT_RANK_CUTOFF,
    DensityOp,
    DensityStack,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _psd_root,
    _reduce_rows,
    as_stack,
    congruence,
    dagger,
    eigh,
    frobenius_inner,
    frobenius_norms,
    frobenius_real,
    herm_eigen,
    hermitian_part,
    matmul,
    psd_sqrt,
    rank_one_projectors,
    require_hermitian,
    traces,
)
from qfg.optimize import SLD_GAP, sld_eigenbasis
from qfg.scenario import load_scenario
from qfg.sld import RANK_GUARD, _directions


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

    def test_row_bits_do_not_depend_on_memory_layout(self, d):
        rng = np.random.default_rng(900 + d)
        h, big = _hermitian_stack(rng, (50, d, d)), _stack(rng, (50, d, 2 * d))
        for a in (big[:, ::-1, ::-2], big[:, :, :d].swapaxes(-1, -2), np.asfortranarray(big[:, :, :d])):
            copy = np.ascontiguousarray(a)
            assert (frobenius_inner(h, a) == frobenius_inner(h, copy)).all()
            assert (frobenius_inner(a, h) == frobenius_inner(copy, h)).all()

    def test_general_left_operand_is_conjugated(self, d):
        rng = np.random.default_rng(800 + d)
        x, a = _stack(rng, (8, d, d)), _stack(rng, (8, d, d))
        self._assert_trace_of_product(dagger(x), a, frobenius_inner(x, a))


def _textbook_product(a, b):
    """c_ij = a_i0 b_0j + a_i1 b_1j of 2 x 2 stacks, each term (ar br - ai bi) + i (ar bi + ai br) in float arithmetic."""
    ar, ai, br, bi = a.real[..., :, :, None], a.imag[..., :, :, None], b.real[..., None, :, :], b.imag[..., None, :, :]
    re, im = ar * br - ai * bi, ar * bi + ai * br
    return (re[..., 0, :] + re[..., 1, :]) + 1j * (im[..., 0, :] + im[..., 1, :])


class TestMatmul:
    """matmul(a, b) is a @ b: 2 x 2 stacks by entry formulas, each row's bits its own; np.matmul's bits at d >= 3."""

    @staticmethod
    def _pairs(n, seed):
        """(n,2,2)@(n,2,2), (n,1,2,2)@(n,p,2,2) and (2,2)@(n,2,2) factors of seeded Gaussian draws."""
        rng = np.random.default_rng(seed)
        return {
            "stack": (_stack(rng, (n, 2, 2)), _stack(rng, (n, 2, 2))),
            "broadcast": (_stack(rng, (n, 1, 2, 2)), _stack(rng, (n, 3, 2, 2))),
            "one-left": (_stack(rng, (2, 2)), _stack(rng, (n, 2, 2))),
        }

    @staticmethod
    def _assert_close(a, b, c):
        want = np.matmul(a, b)
        assert c.shape == want.shape and c.dtype == want.dtype
        assert (frobenius_norms(c - want) <= 4 * EPS * frobenius_norms(a) * frobenius_norms(b)).all()

    @pytest.mark.parametrize("n", [1, 3, 2048])
    def test_agrees_with_numpy(self, n):
        for a, b in self._pairs(n, 1000 + n).values():
            self._assert_close(a, b, matmul(a, b))

    def test_one_matrix(self):
        rng = np.random.default_rng(1001)
        a, b = _stack(rng, (2, 2)), _stack(rng, (2, 2))
        c = matmul(a, b)
        self._assert_close(a, b, c)
        assert (c == matmul(a[None], b[None])[0]).all()

    @pytest.mark.parametrize("n", [1, 3, 2048])
    def test_row_bits_do_not_depend_on_stack_size(self, n):
        for kind, (a, b) in self._pairs(n, 1100 + n).items():
            c = matmul(a, b)
            rows = range(n) if n <= 3 else [*range(7), *np.random.default_rng(n).integers(7, n, size=25)]
            for i in rows:
                left = a if kind == "one-left" else a[i]
                assert (matmul(left, b[i]) == c[i]).all(), (kind, i)
                assert (matmul(a if kind == "one-left" else a[i : i + 1], b[i : i + 1])[0] == c[i]).all(), (kind, i)

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_row_bits_do_not_depend_on_broadcasting(self, n):
        # attainability_stack's shapes: k outcomes at each of n rows, (k, n, 2, 2) @ (n, 2, 2)
        rng = np.random.default_rng(1150 + n)
        a, b = _stack(rng, (5, n, 2, 2)), _stack(rng, (n, 2, 2))
        c = matmul(a, b)
        for j, i in np.ndindex(5, n):
            assert (matmul(a[j, i], b[i]) == c[j, i]).all(), (j, i)
            assert (matmul(a[j : j + 1, i : i + 1], b[i : i + 1])[0, 0] == c[j, i]).all(), (j, i)
            assert (matmul(a[:, i], b[i])[j] == c[j, i]).all(), (j, i)

    def test_row_bits_do_not_depend_on_memory_layout(self):
        rng = np.random.default_rng(1200)
        a, big = _stack(rng, (64, 2, 2)), _stack(rng, (64, 2, 4))
        for b in (big[:, ::-1, ::-2], big[:, :, :2].swapaxes(-1, -2), np.asfortranarray(big[:, :, :2]), dagger(a)):
            copy = np.ascontiguousarray(b)
            assert (matmul(a, b) == matmul(a, copy)).all() and (matmul(b, a) == matmul(copy, a)).all()

    def test_sums_the_two_terms_in_order(self):
        rng = np.random.default_rng(1300)
        a, b = _stack(rng, (512, 2, 2)), _stack(rng, (512, 2, 2))
        assert (matmul(a, b) == _textbook_product(a, b)).all()

    def test_diagonal_input_is_exact(self):
        rng = np.random.default_rng(1400)
        d1, d2 = _stack(rng, (256, 2)), _stack(rng, (256, 2))
        a, b = np.zeros((2, 256, 2, 2), dtype=complex)
        a[:, [0, 1], [0, 1]], b[:, [0, 1], [0, 1]] = d1, d2
        c = matmul(a, b)
        assert (c[:, [0, 1], [1, 0]] == 0).all()
        assert (c[:, [0, 1], [0, 1]] == _textbook_product(a, b)[:, [0, 1], [0, 1]]).all()
        # a real diagonal is one rounded product per entry, as np.matmul gives it
        c = matmul(a.real.astype(complex), b.real.astype(complex))
        assert (c[:, [0, 1], [0, 1]] == d1.real * d2.real).all()
        assert (c == np.matmul(a.real.astype(complex), b.real.astype(complex))).all()

    def test_real_input_is_exact(self):
        rng = np.random.default_rng(1500)
        x, y = rng.normal(size=(2, 256, 2, 2))
        c = matmul(x.astype(complex), y.astype(complex))
        assert (c.imag == 0).all()
        assert (c.real == x[..., :, 0, None] * y[..., None, 0, :] + x[..., :, 1, None] * y[..., None, 1, :]).all()
        # integer entries: every product and sum is exact, so the result is the exact product
        i, j = rng.integers(-2**20, 2**20, size=(2, 256, 2, 2)), rng.integers(-2**20, 2**20, size=(2, 256, 2, 2))
        a, b = i[0] + 1j * i[1], j[0] + 1j * j[1]
        exact = (i[0] @ j[0] - i[1] @ j[1]) + 1j * (i[0] @ j[1] + i[1] @ j[0])
        assert (matmul(a, b) == exact).all() and (np.matmul(a, b) == exact).all()

    @pytest.mark.parametrize("d", range(3, 9))
    def test_larger_dimensions_are_numpy_bits(self, d):
        rng = np.random.default_rng(1600 + d)
        for shape_a, shape_b in [((64, d, d), (64, d, d)), ((64, 1, d, d), (64, 3, d, d)), ((d, d), (64, d, d))]:
            a, b = _stack(rng, shape_a), _stack(rng, shape_b)
            assert (matmul(a, b) == np.matmul(a, b)).all()

    def test_entries_near_the_float_range(self):
        # huge x huge rows overflow; huge x tiny, huge x moderate and moderate x huge ones are the
        # unscaled product times the power of two, which scaling by powers of two leaves exact
        rng = np.random.default_rng(1700)
        a, b = _stack(rng, (4, 64, 2, 2)), _stack(rng, (4, 64, 2, 2))
        ka, kb = np.array([665, 665, 665, 0]), np.array([665, -665, 0, 665])  # 2^665 ~ 1.6e200
        big_a, big_b = a * 2.0 ** ka[:, None, None, None], b * 2.0 ** kb[:, None, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = matmul(big_a, big_b)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.matmul(big_a, big_b)
        assert not np.isfinite(want[0]).any() and not np.isfinite(c[0]).any()
        assert (np.isfinite(c) <= np.isfinite(want)).all()
        assert (c[1:] == matmul(a[1:], b[1:]) * 2.0 ** (ka + kb)[1:, None, None, None]).all()
        self._assert_close(a, b, matmul(a, b))


def _unitary_and_hermitian(x):
    """From (4, d, d) floats: the eigenvectors v of one Hermitian matrix and an exactly Hermitian h."""
    a, h = x[0] + 1j * x[1], x[2] + 1j * x[3]
    return eigh((a + dagger(a)) / 2)[1], (h + dagger(h)) / 2


class TestCongruence:
    """congruence(v, h) is v^dag h v, exactly Hermitian: at d = 2 by entry formulas, each row's bits its own."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda d: arrays(np.float64, (4, d, d), elements=st.floats(-1e3, 1e3))))
    def test_is_the_matmul_pair_and_exactly_hermitian(self, x):
        v, h = _unitary_and_hermitian(x)
        c = congruence(v, h)
        want = matmul(matmul(dagger(v), h), v)
        assert c.shape == want.shape and c.dtype == want.dtype
        assert np.abs(c - want).max() <= 1e-15 * max(1.0, float(np.linalg.norm(h)))
        assert (c == dagger(c)).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_row_bits_are_their_own(self, d, n, seed):
        rng = np.random.default_rng(seed)
        v = eigh(_hermitian_stack(rng, (n, d, d)))[1]
        h, hp = _hermitian_stack(rng, (n, d, d)), _hermitian_stack(rng, (n, 3, d, d))
        c, back, cp = congruence(v, h), congruence(dagger(v), h), congruence(v[:, None], hp)
        # the same rows as a strided view and as a transposed view's contiguous copy
        assert (congruence(np.repeat(v, 2, axis=0)[::2], np.repeat(h, 2, axis=0)[::2]) == c).all()
        assert (congruence(np.ascontiguousarray(dagger(v)), h) == back).all()
        for i in range(n):
            assert (congruence(v[i], h[i]) == c[i]).all()
            assert (congruence(v[i : i + 1], h[i : i + 1])[0] == c[i]).all()
            assert (congruence(dagger(v[i]), h[i]) == back[i]).all()
            for j in range(3):
                assert (congruence(v[i], hp[i, j]) == cp[i, j]).all()



TINY = np.finfo(float).smallest_subnormal


def _unscaled_norms(a):
    """Frobenius norms of an (..., d, d) stack, each taken of its matrix scaled by a power of two near its max |entry|.

    ``frobenius_norms`` squares the entries, so a matrix of entries below about 1e-162 has norm 0.
    """
    e = np.frexp(np.abs(a).max(axis=(-2, -1)))[1]
    f = -e[..., None, None]
    return np.ldexp(frobenius_norms(np.ldexp(a.real, f) + 1j * np.ldexp(a.imag, f)), e)


def _exact_real_pairing(h, a):
    """Re Tr[h^dag a] of one pair of complex matrices, summed in rationals and rounded once."""
    return float(sum(Fraction(x) * Fraction(y) for x, y in zip(h.reshape(-1).view(float), a.reshape(-1).view(float))))


class TestRealPairing:
    """frobenius_real(h, a) is Re Tr[h^dag a], one float vecdot, with each row's bits its own."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda d: arrays(np.float64, (4, 6, d, d), elements=st.floats(-1e3, 1e3))))
    def test_is_the_real_part_of_the_complex_pairing(self, x):
        h, a = x[0] + 1j * x[1], x[2] + 1j * x[3]
        got = frobenius_real(h, a)
        assert got.shape == (6,) and got.dtype == np.float64
        # against the exact sum, within the a priori bound gamma_n sum |h_ij| |a_ij| of an n = 2 d^2 term dot
        # product in any summation order (gamma_{n + 1}: the exact sum is itself rounded), bounded in turn by
        # Cauchy-Schwarz with norms that do not underflow, plus a subnormal per product for rounding below the
        # normal range; the complex pairing's real part is within the same bound
        n = 2 * h[0].size
        gamma = (n + 1) * EPS / 2 / (1 - (n + 1) * EPS / 2)
        bound = gamma * _unscaled_norms(h) * _unscaled_norms(a) + n * TINY
        exact = np.array([_exact_real_pairing(hi, ai) for hi, ai in zip(h, a)])
        assert (np.abs(got - exact) <= bound).all()
        assert (np.abs(frobenius_inner(h, a).real - exact) <= bound).all()
        # a real operand is cast to complex: its imaginary part pairs as 0
        assert (frobenius_real(x[0], a) == frobenius_real(x[0].astype(complex), a)).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_row_bits_are_their_own(self, d, n, seed):
        rng = np.random.default_rng(seed)
        h, a = _hermitian_stack(rng, (n, d, d)), _stack(rng, (n, d, d))
        hp, outcomes, x = _stack(rng, (n, 3, d, d)), _hermitian_stack(rng, (5, 1, d, d)), _stack(rng, (n, d, d))
        full, paired, measured = frobenius_real(h, a), frobenius_real(h[:, None], hp), frobenius_real(outcomes, h)
        assert paired.shape == (n, 3) and measured.shape == (5, n)
        assert (frobenius_real(np.repeat(h, 2, axis=0)[::2], np.repeat(a, 2, axis=0)[::2]) == full).all()
        assert (frobenius_real(dagger(x), a) == frobenius_real(np.ascontiguousarray(dagger(x)), a)).all()
        assert (frobenius_real(np.repeat(h, 64, axis=0), np.repeat(a, 64, axis=0))[::64] == full).all()
        for i in range(n):
            assert frobenius_real(h[i], a[i]) == full[i]
            assert frobenius_real(h[i : i + 1], a[i : i + 1])[0] == full[i]
            for j in range(3):
                assert frobenius_real(h[i], hp[i, j]) == paired[i, j]
            for j in range(5):
                assert frobenius_real(outcomes[j, 0], h[i]) == measured[j, i]


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


EPS = np.finfo(float).eps


def _reference_eigenvalues(a):
    """The eigenvalues (p + q)/2 -+ sqrt(((p - q)/2)^2 + |b|^2) of each 2 x 2 row, to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        rows = []
        for m in a:
            p, q, br, bi = (Decimal(float(x)) for x in (m[0, 0].real, m[1, 1].real, m[1, 0].real, m[1, 0].imag))
            mid, r = (p + q) / 2, (((p - q) / 2) ** 2 + br * br + bi * bi).sqrt()
            rows.append((mid - r, mid + r))
        return rows


def _qubit_draws(rng, n):
    """n exactly Hermitian 2 x 2 matrices: Gaussian ones over six decades, real ones, projectors and states."""
    general = _hermitian_stack(rng, (n, 2, 2)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
    real = _hermitian_stack(rng, (n, 2, 2)).real.astype(complex)
    vecs = _stack(rng, (n, 2))
    projectors = rank_one_projectors(vecs / np.linalg.norm(vecs, axis=1)[:, None])
    k = rng.uniform(RANK_GUARD, 0.5, size=(n, 1, 1))
    states = k * projectors[::-1] + (1 - k) * (IDENTITY2 - projectors[::-1])
    return np.concatenate([general, real, projectors, (states + dagger(states)) / 2])


class TestEigh2:
    """``eigh`` of qubit stacks, one LAPACK call: accurate, exact where it can be, row by row."""

    @staticmethod
    def _assert_decomposes(a, w, v, tol=4):
        norm = frobenius_norms(a)
        assert (np.diff(w, axis=-1) >= 0).all()
        assert (frobenius_norms(a @ v - v * w[..., None, :]) <= tol * EPS * norm).all()
        assert (frobenius_norms(dagger(v) @ v - IDENTITY2) <= 6 * EPS).all()

    def test_agrees_with_lapack_and_the_exact_spectrum(self):
        a = _qubit_draws(np.random.default_rng(900), 200)
        w, v = eigh(a)
        assert (w == np.linalg.eigh(a)[0]).all()
        # LAPACK's own Householder step costs it up to about 6 eps ||A||_F on complex rows
        self._assert_decomposes(a, w, v, tol=8)
        for wi, ref, n in zip(w, _reference_eigenvalues(a), frobenius_norms(a)):
            assert max(abs(Decimal(float(x)) - r) for x, r in zip(wi, ref)) <= Decimal(8 * EPS * n)

    @pytest.mark.parametrize("diag", [
        (SQRT_RANK_CUTOFF, 1.0), (RANK_GUARD, 1 - RANK_GUARD), (1 - RANK_GUARD, RANK_GUARD),
        (0.25, 0.75), (-2.0, 3.0), (5.0, -7.0), (0.0, 0.0), (-1e-150, 1e150),
    ])
    def test_diagonal_input_is_exact(self, diag):
        a = np.diag(np.array(diag, dtype=complex))
        w, v = eigh(a)
        assert (w == np.sort(diag)).all()
        assert (a @ v == v * w).all() and (np.abs(v) == np.abs(v).round()).all()

    def test_seeded_diagonals_are_exact(self):
        # dsteqr's deflation: the diagonal is the spectrum, not (sm +- rt)/2 rounded
        rng = np.random.default_rng(901)
        d = rng.uniform(-1, 1, size=(4096, 2)) * 10.0 ** rng.integers(-20, 20, size=(4096, 2))
        a = np.zeros((4096, 2, 2), dtype=complex)
        a[:, 0, 0], a[:, 1, 1] = d[:, 0], d[:, 1]
        w, v = eigh(a)
        assert (w == np.sort(d, axis=1)).all()
        assert (np.abs(v) == np.abs(v).round()).all()

    def test_great_circle_projector_has_an_exact_zero(self):
        scenario = load_scenario(Path(__file__).parent / "fixtures" / "great_circle.json")
        rho = scenario.curve.rho_stack(np.array([scenario.theta0]))
        assert rho.eigenvalues[0, 0] == 0.0
        w, v = eigh(rho.matrices)
        assert w[0, 0] == 0.0 and w[0, 1] == pytest.approx(1.0, abs=EPS)
        self._assert_decomposes(rho.matrices, w, v)

    @pytest.mark.parametrize("c", [0.0, 1.0, -3.5, 2.0**500, 2.0**-500, 5e-324])
    def test_multiple_of_identity(self, c):
        a = c * IDENTITY2
        w, v = eigh(a)
        assert (w == c).all() and (v == IDENTITY2).all()

    @pytest.mark.parametrize("rel_gap", [SLD_GAP / 2, SLD_GAP, 2 * SLD_GAP, 1e3 * SLD_GAP])
    def test_gaps_near_the_sld_gap_are_resolved(self, rel_gap):
        # lam (1 +- rel_gap / 2) in a random basis: the gap comes back within a few eps |lam|,
        # so the SLD-gap rule sees the side of SLD_GAP it was put on
        rng = np.random.default_rng(902)
        vecs = _stack(rng, (64, 2))
        u = rank_one_projectors(vecs / np.linalg.norm(vecs, axis=1)[:, None])
        lam = 10.0 ** rng.uniform(-3, 3, size=64) * rng.choice([-1, 1], size=64)
        a = lam[:, None, None] * ((1 + rel_gap / 2) * u + (1 - rel_gap / 2) * (IDENTITY2 - u))
        a = (a + dagger(a)) / 2
        w, v, degenerate = sld_eigenbasis(a)
        self._assert_decomposes(a, w, v)
        assert (np.abs(w[:, 1] - w[:, 0] - np.abs(lam) * rel_gap) <= 8 * EPS * np.abs(lam)).all()
        if rel_gap != SLD_GAP:
            assert (degenerate == (rel_gap < SLD_GAP)).all()

    @pytest.mark.parametrize("p, q, b", [
        (p, q, b) for b in (1e-320, 1e-320j, -3e-321 + 4e-321j) for p, q in ((1.0, 0.0), (0.2, 0.8), (0.5, 0.5), (0.0, 0.0))
        if (p, q, b) != (0.5, 0.5, -3e-321 + 4e-321j)  # LAPACK moves this degenerate diagonal by an ulp
    ])
    def test_subnormal_off_diagonal(self, p, q, b):
        a = np.array([[p, np.conj(b)], [b, q]], dtype=complex)
        w, v = eigh(a)
        assert np.isfinite(v).all()
        assert (frobenius_norms(dagger(v) @ v - IDENTITY2) <= 6 * EPS).all()
        assert np.allclose(w, sorted((p, q)), rtol=0, atol=1e-300)
        if p == q == 0.0:
            assert (w == [-abs(b), abs(b)]).all()

    def test_entries_near_the_float_range(self):
        a = np.array([[[1e308, 1e308], [1e308, -1e308]], [[0.5, 1e308 - 1e308j], [1e308 + 1e308j, 0.5]]])
        w, v = eigh(a)
        self._assert_decomposes(a / 1e308, w / 1e308, v)
        assert np.allclose(w[0], np.linalg.eigh(a[0])[0], rtol=4 * EPS, atol=0)
        # an eigenvalue beyond the float range is inf with a unit eigenvector, as LAPACK gives it
        w, v = eigh(np.full((2, 2), 1.5e308, dtype=complex))
        assert (w == [0.0, np.inf]).all() and (w == np.linalg.eigh(np.full((2, 2), 1.5e308 + 0j))[0]).all()
        assert np.allclose(np.abs(v), np.sqrt(0.5), rtol=EPS, atol=0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_entries_raise(self, bad):
        a = np.array([[[0.5, 0.1], [0.1, 0.5]], [[0.5, bad], [bad, 0.5]]], dtype=complex)
        with pytest.raises(NonHermitianInput):
            eigh(a)

    def test_row_bits_do_not_depend_on_stack_size(self):
        a = _qubit_draws(np.random.default_rng(904), 512)
        specials = np.array([IDENTITY2, np.diag([SQRT_RANK_CUTOFF, 1.0]), [[1, 1e-320], [1e-320, 0]],
                             np.zeros((2, 2)), [[0.5, 0.5j], [-0.5j, 0.5]]], dtype=complex)
        a = np.concatenate([specials, a])
        w, v = eigh(a)
        assert w.shape == (2048 + 5, 2) and v.shape == (2048 + 5, 2, 2)
        w7, v7 = eigh(a[:7])
        assert (w7 == w[:7]).all() and (v7 == v[:7]).all()
        for i in range(7):
            wi, vi = eigh(a[i])
            assert (wi == w[i]).all() and (vi == v[i]).all()

    def test_any_memory_layout_gives_the_contiguous_bits(self):
        a = _qubit_draws(np.random.default_rng(905), 64)
        moved = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
        for view in (np.asfortranarray(a), a[:, ::-1, ::-1], moved):
            w, v = eigh(view)
            wc, vc = eigh(np.ascontiguousarray(view))
            assert (w == wc).all() and (v == vc).all()
        rho = np.array([np.diag([0.3, 0.7]), [[0.5, 0.1j], [-0.1j, 0.5]]])
        fortran, contiguous = DensityStack(np.asfortranarray(rho)), DensityStack(rho)
        assert (fortran.eigenvalues == contiguous.eigenvalues).all()
        assert (fortran.eigenvectors == contiguous.eigenvectors).all()


@pytest.mark.parametrize("d", range(2, 9))
class TestEigh:
    """``eigh`` at every d: LAPACK's bits, and one rule for a non-finite row."""

    def test_is_lapack_at_every_dimension(self, d):
        a = _hermitian_stack(np.random.default_rng(906 + d), (64, d, d))
        assert all((x == y).all() for x, y in zip(eigh(a), np.linalg.eigh(a)))
        # the rule reads the spectrum: a finite row's eigenvalue beyond the float range is inf, as LAPACK's
        w, v = eigh(np.full((1, d, d), 1.5e308, dtype=complex))
        assert w[0, -1] == np.inf and np.isfinite(v).all()

    # a Hermitian diagonal is real
    @pytest.mark.parametrize("i, j, bad", [(1, 1, x) for x in (np.nan, np.inf, -np.inf)]
                             + [(0, 1, x) for x in (np.nan, np.inf, -np.inf, complex(0, np.inf))])
    def test_non_finite_entries_raise(self, d, i, j, bad):
        a = np.stack([np.eye(d, dtype=complex) / d] * 3)
        a[1, i, j], a[1, j, i] = bad, np.conj(bad)
        with pytest.raises(NonHermitianInput):
            eigh(a)


class TestPsdSqrt:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_stacked_rows_equal_single_roots(self, d):
        rng = np.random.default_rng(1000 + d)
        x = _stack(rng, (3, 4, d, d))
        m = x @ dagger(x)
        m[0, 0] = np.diag(np.r_[5e-11, np.full(d - 1, 100.0)])  # a root that drops an eigenvalue
        m = (m + dagger(m)) / 2
        roots = _psd_root(*eigh(m))
        assert roots.shape == m.shape
        for i, j in np.ndindex(3, 4):
            assert (roots[i, j] == psd_sqrt(m[i, j])).all()

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


def test_stack_rows_end_at_its_length():
    s = DensityStack(np.array([np.diag([0.25, 0.75]), np.eye(2) / 2, np.diag([1.0, 0.0])]))
    assert len(list(itertools.islice(iter(s), len(s) + 1))) == len(s)
    assert (s[-1].matrix == s[2].matrix).all() and (s[-3].eigenvalues == s[0].eigenvalues).all()
    for i in (len(s), -len(s) - 1):
        with pytest.raises(IndexError):
            s[i]


class TestFromEigenpairs:
    """``DensityStack.from_eigenpairs`` checks its rows as ``DensityStack`` does and skips only the eigensolve."""

    @staticmethod
    def _pairs(rho):
        return tuple(np.array(x) for x in eigh(np.asarray(rho, dtype=complex)))

    def test_holds_the_given_eigenpairs(self):
        rho = np.array([np.diag([0.25, 0.75]), [[0.5, 0.1j], [-0.1j, 0.5]]], dtype=complex)
        w, v = self._pairs(rho)
        stack = DensityStack.from_eigenpairs(rho, w, v)
        assert (stack.matrices == DensityStack(rho).matrices).all()
        assert stack.eigenvalues is w and stack.eigenvectors is v
        for a in (stack.matrices, stack.eigenvalues, stack.eigenvectors):
            assert not a.flags.writeable
        assert (stack[1].eigenvectors == v[1]).all()

    @pytest.mark.parametrize("rho, error", [
        (np.array([[0.5, 0.4], [0.1, 0.5]]), NonHermitianInput),
        (np.diag([0.5, 0.6]), NotNormalized),
        (np.diag([1.2, -0.2]), NotPositiveSemidefinite),
    ], ids=["non-hermitian", "trace", "psd"])
    def test_rows_are_checked_as_the_constructor_checks_them(self, rho, error):
        # the eigenvalues of the PSD check are the given ones, here eigh's of the symmetrized matrices
        rows = np.array([np.eye(2) / 2, rho], dtype=complex)
        with pytest.raises(error) as lifted:
            DensityStack.from_eigenpairs(rows, *self._pairs((rows + dagger(rows)) / 2))
        with pytest.raises(error) as solved:
            DensityStack(rows)
        assert str(lifted.value) == str(solved.value)

    def test_psd_floor_reads_the_given_eigenvalues(self):
        rho = np.eye(2, dtype=complex)[None] / 2
        with pytest.raises(NotPositiveSemidefinite, match="-1.000e-09"):
            DensityStack.from_eigenpairs(rho, np.array([[-1e-9, 1.0]]), np.eye(2, dtype=complex)[None])


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
    # a + a^dag overflows for entries above about 9e307; halving first does not
    m = np.array([[[0.5, 1.7e308 * (1 + 1j)], [1.7e308 * (1 - 1j), 0.5]]])
    assert (hermitian_part(m) == m).all()
    # halving first would round a subnormal entry; every other row keeps its exactly Hermitian bits
    m = np.array([m[0], [[0.5, 5e-324], [5e-324, 0.5]]])
    assert (hermitian_part(m) == m).all()


def _bits(a):
    """The IEEE bits of a float or complex array, so that equality also tells the signs of zeros apart."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestInputsAreNeverWritten:
    """The symmetrization reads a transposed or Fortran-ordered input, whose transpose is C-contiguous, without writing it."""

    @staticmethod
    def _reference(a):
        return (a + dagger(a)) / 2  # the out-of-place (a + a^dag) / 2, which allocates its result

    def test_require_hermitian_of_a_transpose(self):
        a = random_hermitian(np.random.default_rng(7), 3)
        before = a.copy()
        a.setflags(write=False)  # a write into it would raise, not pass unseen
        got = require_hermitian(a.T)
        assert (_bits(a) == _bits(before)).all()
        assert (_bits(got) == _bits(self._reference(before.T))).all()
        assert (got == before.conj()).all()

    def test_density_op_of_a_fortran_matrix(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = x @ x.conj().T
        rho = np.asfortranarray(self._reference(rho / np.trace(rho).real))
        before = rho.copy()
        state = DensityOp(rho)
        assert (_bits(rho) == _bits(before)).all()
        assert (_bits(state.matrix) == _bits(self._reference(before))).all()

    def test_directions_of_a_transposed_stack(self):
        drho = _hermitian_stack(np.random.default_rng(9), (4, 2, 2)).transpose(0, 2, 1)
        before = drho.copy()
        _directions(drho)
        assert (_bits(drho) == _bits(before)).all()

    @pytest.mark.parametrize("m", [[[1 + 1j]], [[[0.5]], [[0.5 + 1e-3j]], [[1.0]]]])
    def test_a_non_real_1x1_entry_is_rejected(self, m):
        m = np.array(m)
        before = m.copy()
        with pytest.raises(NonHermitianInput):
            require_hermitian(m) if m.ndim == 2 else hermitian_part(m)
        assert (_bits(m) == _bits(before)).all()


REDUCTIONS = [(np.maximum, "max"), (np.minimum, "min")]


@pytest.mark.parametrize("n", [1, 3, 2048])
@pytest.mark.parametrize("d", range(2, 9))
class TestReduceRows:
    """_reduce_rows(ufunc, a, axes) is numpy's max or min over a's last ``axes`` axes, bit for bit."""

    @staticmethod
    def _assert_numpys(x, axes, initial=None):
        for ufunc, method in REDUCTIONS:
            got = _reduce_rows(ufunc, x, axes, initial)
            kwargs = {} if initial is None else {"initial": initial}
            want = getattr(x, method)(axis=tuple(range(-axes, 0)), **kwargs)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert (np.isnan(got) == np.isnan(want)).all()
            real = ~np.isnan(want)
            assert (_bits(got[real]) == _bits(want[real])).all()

    def test_rows_of_every_layout(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        self._assert_numpys(rng.normal(size=(n, d)), 1)  # spectra, as _degenerate reads them
        self._assert_numpys(np.abs(_stack(rng, (n, d, d))), 2)  # |a_ij|, as hermitian_part reads them
        self._assert_numpys(np.abs(_stack(rng, (n, 3, d, d))), 2, initial=1.0)  # (n, p) directions, as sld_solve_stack
        self._assert_numpys(np.abs(_stack(rng, (n, d, d)).view(float)), 2, initial=0.0)  # re, im parts, as frobenius_norms
        self._assert_numpys(rng.normal(size=(d, 2 * d)).T[:n], 1)  # a strided view

    def test_nan_row_propagates(self, d, n):
        x = np.abs(_stack(np.random.default_rng(d + n), (n, d, d)))
        x[n // 2, d - 1, 0] = np.nan
        self._assert_numpys(x, 2)
        assert np.isnan(_reduce_rows(np.maximum, x, 2)).sum() == 1

    def test_signed_zeros_keep_their_value(self, d, n):
        # a row mixing +0 and -0 may give either zero; |x| has no -0, the callers' case
        x = np.random.default_rng(d * n).choice([0.0, -0.0, 1.0, -1.0], size=(n, d, d))
        for ufunc, method in REDUCTIONS:
            assert (_reduce_rows(ufunc, x, 2) == getattr(x, method)(axis=(-2, -1))).all()
        self._assert_numpys(np.abs(x), 2)


def test_reduce_rows_of_empty_stacks_and_rows():
    # hermitian_part takes a stack of no matrices, and _degenerate the empty gap list of a d = 1 spectrum
    assert _reduce_rows(np.maximum, np.empty((0, 2, 2)), 2, 1.0).shape == (0,)
    assert (_reduce_rows(np.maximum, np.empty((3, 0, 0)), 2, 1.0) == 1.0).all()
    assert (_reduce_rows(np.minimum, np.empty((3, 0)), 1, np.inf) == np.inf).all()
    assert hermitian_part(np.empty((0, 2, 2))).shape == (0, 2, 2)


def _broadcast_projectors(vecs):
    """The projectors of the general form: the broadcast outer product v v^dag, then (p + p^dag) / 2."""
    p = vecs[:, :, None] * vecs.conj()[:, None, :]
    return (p + dagger(p)) / 2


@pytest.mark.parametrize("n", [1, 3, 2048])
class TestRankOneProjectors:
    """A qubit stack's projectors are formed by entry products along the stack axis, with the broadcast form's bits."""

    @staticmethod
    def _vectors(n, seed):
        """n Gaussian rows at d = 2, normalized, with zero, signed-zero, subnormal and huge components among them."""
        rng = np.random.default_rng(seed)
        vecs = _stack(rng, (n, 2))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        for rows, col, value in [(slice(1, None, 7), 0, 0.0), (slice(2, None, 7), 1, complex(-0.0, -0.0)),
                                 (slice(3, None, 7), 1, 3e-310 - 2e-320j), (slice(4, None, 7), 0, 1e-320j),
                                 (slice(5, None, 7), 0, 1e200 + 3e199j), (slice(6, None, 7), 1, -1.7e154)]:
            vecs[rows, col] = value
        if n > 1:
            vecs[-1] = [complex(0.0, -0.0), 0.0]
        return vecs

    def test_bits_are_the_broadcast_forms(self, n):
        vecs = self._vectors(n, 3000 + n)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _broadcast_projectors(vecs)
            for layout in (vecs, np.asfortranarray(vecs), np.ascontiguousarray(vecs.T).T):
                got = rank_one_projectors(layout)
                assert got.shape == (n, 2, 2) and got.flags.c_contiguous
                assert (_bits(got) == _bits(want)).all()

    def test_rows_are_exactly_hermitian_and_their_own(self, n):
        vecs = self._vectors(n, 3100 + n)
        vecs = vecs[(np.abs(vecs) <= 1.0).all(axis=1)]  # no huge component: rows of norm at most 1
        p = rank_one_projectors(vecs)
        assert (p == dagger(p)).all() and (p.imag[:, [0, 1], [0, 1]] == 0).all()
        tr = traces(p).real  # |v|^2, so p p = tr p
        assert (frobenius_norms(matmul(p, p) - tr[:, None, None] * p) <= 4 * EPS * tr).all()
        for i in range(0, len(vecs), 97):
            assert (_bits(rank_one_projectors(vecs[i : i + 1])[0]) == _bits(p[i])).all()


@pytest.mark.parametrize("d", range(2, 9))
def test_frobenius_norms_are_the_summed_squares_scaled_by_a_power_of_two(d):
    rng = np.random.default_rng(907 + d)
    a = _stack(rng, (400, d, d)) * 10.0 ** rng.uniform(-150, 150, size=(400, d, d))
    assert (_bits(frobenius_norms(a)) == _bits(np.sqrt(frobenius_real(a, a)))).all()
    unit = _stack(rng, (50, d, d))
    for scale in (1e-234, 1e200):  # squares that underflow or overflow
        norm = frobenius_norms(unit * scale)
        assert (np.abs(norm / scale - frobenius_norms(unit)) <= 4 * EPS * frobenius_norms(unit)).all()


@pytest.mark.parametrize("d", range(2, 9))
def test_traces_are_ndarray_trace(d):
    rng = np.random.default_rng(d)
    zeros = np.zeros((16, d, d), dtype=complex)
    signs = rng.choice([0.0, -0.0], size=(16, d, 2))
    diag = np.arange(d)
    zeros[:, diag, diag] = signs[..., 0] + 1j * signs[..., 1]  # numpy's sum starts at +0: -0 + -0 traces to +0
    for a in (_stack(rng, (2048, d, d)), _stack(rng, (5, 3, d, d)), zeros, _stack(rng, (d, d))):
        got, want = traces(a), a.trace(axis1=-2, axis2=-1)
        assert got.shape == want.shape and (_bits(got) == _bits(want)).all()


def _scaled_hermitian_part(m):
    """``hermitian_part`` judging every stack row by row, as it did before its exact branch: the reference."""
    a = as_stack(m)
    s = np.abs(a).max(axis=(1, 2), initial=1.0)
    b = a / s[:, None, None]
    defect, norm = frobenius_norms(b - dagger(b)), frobenius_norms(b)
    bad = defect > HERMITIAN_RTOL * np.maximum(1.0 / s, norm)
    if bad.any():
        i = int(np.argmax(bad))
        scale = max(1.0, norm[i] * s[i])
        raise NonHermitianInput(f"Hermiticity defect {defect[i] * s[i]:.3e} exceeds {HERMITIAN_RTOL:.1e} * {scale:.3e}")
    huge = ~(s < 2.0**1023)
    if not huge.any():
        return (a + dagger(a)) / 2
    half = a / 2
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(huge[:, None, None], half + dagger(half), (a + dagger(a)) / 2)


def _assert_scaled_answer(m):
    """hermitian_part(m) is the reference's answer: the same bits, or the same error text."""
    try:
        want = _scaled_hermitian_part(m)
    except NonHermitianInput as exc:
        with pytest.raises(NonHermitianInput) as got:
            hermitian_part(m)
        assert str(got.value) == str(exc)
        return False
    got = hermitian_part(m)
    assert got.shape == want.shape and (_bits(got) == _bits(want)).all()
    return True


def _exact_stacks():
    rng = np.random.default_rng(7)
    signed = np.array([[[0.5, 0.0], [-0.0, 0.5]], [[-0.0, complex(0.0, -0.0)], [complex(-0.0, 0.0), 1.0]]])
    tiny = np.array([[[5e-324, 3e-310 + 5e-324j], [3e-310 - 5e-324j, 0.5]]])
    huge = np.array([[[0.5, 1.7e308 * (1 + 1j)], [1.7e308 * (1 - 1j), 0.5]]])
    edge = np.array([[[2.0**1023, 0], [0, 1.0]], [[np.nextafter(2.0**1023, 0), 0], [0, 1.0]]])
    return {
        "draws": _hermitian_stack(rng, (64, 3, 3)),
        "qubits": _hermitian_stack(rng, (2048, 2, 2)),
        "d8": _hermitian_stack(rng, (5, 8, 8)),
        "signed-zeros": signed,
        "subnormal": tiny,
        "huge": huge,  # the halving path
        "huge-and-a-subnormal-row": np.concatenate([huge, tiny]),
        "huge-and-subnormal-in-a-row": np.array([[[5e-324, 1.7e308], [1.7e308, 5e-324]]]),
        "at-2^1023": edge,
        "below-2^1023": edge[1:],
    }


EXACT_STACKS = _exact_stacks()


@pytest.mark.parametrize("m", EXACT_STACKS.values(), ids=EXACT_STACKS.keys())
def test_hermitian_part_of_an_exact_stack_is_the_scaled_answer(m):
    assert (m == dagger(m)).all()
    assert _assert_scaled_answer(m)


def test_exact_stack_is_answered_without_a_norm(monkeypatch):
    def no_norm(*args):
        raise AssertionError("an exactly Hermitian stack below 2^1023 needs no Frobenius norm")

    monkeypatch.setattr(qfg.linalg, "frobenius_norms", no_norm)
    m = _hermitian_stack(np.random.default_rng(3), (2048, 2, 2))
    assert (hermitian_part(m) == m).all()


@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6, 1e300])
def test_hermitian_part_of_an_inexact_stack_is_the_scaled_answer(factor, scale):
    # row 2 has the defect ||m - m^dag||_F = 2 |y| = HERMITIAN_RTOL * (1 +- 1e-6) * max(1, ||m||_F); the rest are exact
    m = _hermitian_stack(np.random.default_rng(11), (5, 3, 3))
    bound = max(1.0, scale * float(frobenius_norms(m[2])))
    m *= scale
    m[2, 0, 0] += 0.5j * HERMITIAN_RTOL * factor * bound
    assert _assert_scaled_answer(m) == (factor < 1)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_pairings_and_norms_of_a_stack_of_no_matrices(d):
    empty = np.empty((0, d, d), dtype=complex)
    for got in (frobenius_real(empty, empty), frobenius_inner(empty, empty), frobenius_norms(empty)):
        assert got.shape == (0,)


def _modulus_rule_hermitian_part(m):
    """``hermitian_part`` deciding its exact branch on the complex |a_ij| < 2^1023: the parts' rule's reference."""
    a = as_stack(m)
    if (a == dagger(a)).all() and np.abs(a).max(initial=0.0) < 2.0**1023:
        return (a + dagger(a)) / 2
    return _scaled_hermitian_part(m)


def _answer(f, m):
    """The bits of f(m), or the text of the NonHermitianInput it raises."""
    try:
        return _bits(f(m)).tobytes()
    except NonHermitianInput as exc:
        return str(exc)


_EDGE_MAGNITUDES = st.one_of(
    st.floats(2.0**1021, 1.5 * 2.0**1023),  # parts across 2^1022 and 2^1023, moduli across 2^1023
    st.sampled_from([2.0**1022, np.nextafter(2.0**1022, 0), 2.0**1023, np.nextafter(2.0**1023, 0), 2.0**1022.5]),
    st.floats(0.0, 4.0),
)
_EDGE_PARTS = st.tuples(_EDGE_MAGNITUDES, st.booleans()).map(lambda x: -x[0] if x[1] else x[0])


@st.composite
def _edge_hermitian_stacks(draw):
    """Exactly Hermitian (n, d, d) stacks whose parts or moduli straddle 2^1022 and 2^1023."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    m = np.zeros((n, d, d), dtype=complex)
    for r in range(n):
        for i in range(d):
            m[r, i, i] = draw(_EDGE_PARTS)
            for j in range(i + 1, d):
                m[r, i, j] = complex(draw(_EDGE_PARTS), draw(_EDGE_PARTS))
                m[r, j, i] = m[r, i, j].conjugate()
    return m


@settings(max_examples=200, deadline=None)
@given(_edge_hermitian_stacks())
def test_parts_rule_near_2_1022_answers_as_the_modulus_rule(m):
    assert (m == dagger(m)).all()
    assert _answer(hermitian_part, m) == _answer(_modulus_rule_hermitian_part, m)


def test_an_exact_stack_with_a_part_at_2_1022_is_judged_row_by_row(monkeypatch):
    # |a_ij| = 2^1022 is below 2^1023, but its real part is not below 2^1022: the edge row takes the scaled path
    m = np.array([[[2.0**1022, 0.5], [0.5, 1.0]]], dtype=complex)
    calls = []
    monkeypatch.setattr(qfg.linalg, "frobenius_norms", lambda a: calls.append(a) or frobenius_norms(a))
    assert _answer(hermitian_part, m) == _answer(_modulus_rule_hermitian_part, m)
    assert calls
