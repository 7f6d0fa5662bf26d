"""Dense complex matrix primitives for small dimensions (d <= 8).

Conventions used everywhere downstream:

* matrices are ``numpy.ndarray`` with ``dtype=complex128``, row-major; n
  matrices of one dimension form a stack of shape ``(n, d, d)``;
* a matrix is accepted as Hermitian when ``||M - M^dag||_F <= 1e-12 * max(1, ||M||_F)``;
* eigenvalues are returned ascending, eigenvectors as unitary column matrices.

Every eigendecomposition goes through ``eigh``, which decomposes a whole
stack in one ``np.linalg.eigh`` (LAPACK) call at every d, and raises
NonHermitianInput on a non-finite row. The states built without it are
those whose eigenpairs are known by construction, which
``DensityStack.from_eigenpairs`` takes from ``states``: a pure one's, from
the Householder lift of psi, and a mixed qubit chart point's, (k, 1 - k)
and the columns of U(z). Every matrix product
goes through ``matmul``, which multiplies broadcasting stacks in one call:
2 x 2 factors by the entry formulas c_ij = a_i0 b_0j + a_i1 b_1j as array
operations, not one BLAS call per matrix, and d >= 3 by ``np.matmul``.
Every Hermitian change of basis v^dag h v goes through ``congruence``, whose
result is exactly Hermitian: a 2 x 2 stack forms each row's three
independent entries by entry formulas whose every product has a real factor,
and d >= 3 symmetrizes the ``matmul`` pair. Every trace of a product is
one ``vecdot`` of the flattened matrices: the real pairing Re Tr[h^dag a]
(the probabilities, the QFI Tr[drho L] and the norms) by ``frobenius_real``
over their floats, and the complex Tr[h^dag a] (the Fisher tensor, whose
imaginary part is the KKS form) by ``frobenius_inner``. A
row's max or min over its few trailing entries is taken along the contiguous
stack axis by ``_reduce_rows``, not by numpy's loop per row, and an exactly
Hermitian stack answers the Hermiticity check with one a == a^dag test. The single-matrix functions are
the n = 1 case of the stacked ones, so a matrix gives the same bits alone and
as a row of a stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianInput,
    NotNormalized,
    NotPositiveSemidefinite,
)

#: A matrix m is Hermitian when ||m - m^dag||_F <= HERMITIAN_RTOL * max(1, ||m||_F).
HERMITIAN_RTOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10
#: Eigenvalues at or below this times max(1, lam_max) are zero in a square root.
SQRT_RANK_CUTOFF = 1e-12
TRACE_TOL = 1e-9
MAX_DIM = 8

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def _square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, checking shape and finiteness."""
    return as_stack(_square(m)[None])[0]


def as_stack(m) -> np.ndarray:
    """Coerce to an (n, d, d) stack of square complex matrices, checking shape and finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    if a.shape[1] > MAX_DIM:
        raise DimensionMismatch(f"dimension {a.shape[1]} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(a).all():
        raise NonHermitianInput("matrix contains NaN or Inf entries")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _dagger_copy(a: np.ndarray) -> np.ndarray:
    """``dagger(a)`` as a new C-contiguous array.

    An elementwise ufunc of a with the transposed view ``dagger(a)`` copies
    that operand into numpy's ufunc buffer (8192 entries, a whole 2000-row
    qubit stack) on top of the conjugate ``dagger`` forms; this one new array
    is all a sum a + a^dag needs. It never shares a's memory, whatever a's
    layout, so a is never written.
    """
    return np.conjugate(a.swapaxes(-1, -2), order="C")


def rank_one_projectors(vecs: np.ndarray) -> np.ndarray:
    """The exactly Hermitian projectors |v><v| of the rows v of an (n, d) array of unit vectors.

    Entry ij is (p_ij + p_ji^*) / 2 for p_ij = v_i v_j^*. A qubit stack forms
    its four entries as products along the stack axis, each an array
    operation over the n rows; the broadcast outer product of d >= 3 runs a
    loop of d entries per row, which on a 2 x 2 stack of thousands costs
    about twice as much. Each entry is the same complex product and sum
    either way, so the bits are the same.
    """
    if vecs.shape[1] != 2:
        p = vecs[:, :, None] * vecs.conj()[:, None, :]
        return (p + dagger(p)) / 2
    x, y = vecs[:, 0], vecs[:, 1]
    m = np.empty((len(vecs), 2, 2), dtype=complex)
    for i, p in ((0, x * x.conj()), (1, y * y.conj())):
        m[:, i, i] = (p + p.conj()) / 2
    p, q = x * y.conj(), y * x.conj()  # p_01 and p_10, formed after the diagonal's products are dropped
    m[:, 0, 1], m[:, 1, 0] = (p + q.conj()) / 2, (q + p.conj()) / 2
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of each pair of matrices of two broadcasting complex (..., d, d) stacks.

    2 x 2 factors are multiplied by the entry formulas c_ij = a_i0 b_0j +
    a_i1 b_1j, summed in that order, each an array operation over the whole
    stack; ``np.matmul`` makes one BLAS call per 2 x 2 matrix, which on a
    stack of thousands costs several times more. d >= 3 goes to ``np.matmul``.
    Each term is re(a_ik) b_kj + im(a_ik) (i b_kj), the textbook complex
    product as real-by-complex products: numpy fuses a complex-by-complex
    product's multiply and add on some loop paths and not on others, while a
    product with a zero real or imaginary part has the same bits on all of
    them. So the formula depends on d alone, and a row's bits are its own,
    whatever the stack size, broadcasting or memory layout. An entry that
    overflows is non-finite, as ``np.matmul``'s is, without a warning.
    """
    if a.shape[-1] != 2:
        return np.matmul(a, b)
    ar, ai, ib = a.real, a.imag, 1j * b
    rows = [(ar[..., i, 0], ai[..., i, 0], ar[..., i, 1], ai[..., i, 1]) for i in (0, 1)]
    cols = [(b[..., 0, j], ib[..., 0, j], b[..., 1, j], ib[..., 1, j]) for j in (0, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        entries = [(r0 * b0 + i0 * ib0) + (r1 * b1 + i1 * ib1) for r0, i0, r1, i1 in rows for b0, ib0, b1, ib1 in cols]
    c = np.empty(np.shape(entries[0]) + (2, 2), dtype=complex)
    c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1] = entries
    return c


def congruence(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The exactly Hermitian v^dag h v of each pair of two broadcasting (..., d, d) stacks, h exactly Hermitian.

    It is the one Hermitian change of basis: ``congruence(v, h)`` takes h
    into the basis of v's columns, ``congruence(dagger(v), h)`` back. A
    2 x 2 row has three independent entries, and only they are formed, from
    h's real diagonal p, q and its upper entry g = g_r + i g_i:

    * (h v)_0j = p v_0j + g_r v_1j + g_i (i v_1j) and
      (h v)_1j = g_r v_0j - g_i (i v_0j) + q v_1j;
    * D_jj = Re(v_0j^* (h v)_0j) + Re(v_1j^* (h v)_1j), summed from the real
      and imaginary parts, and its imaginary part is 0;
    * D_01 = v_00^* (h v)_01 + v_10^* (h v)_11, likewise by parts, and
      D_10 = D_01^*.

    Every product has a real factor, as in ``matmul`` and for its reason: a
    row's bits are its own, whatever the stack size, broadcasting or memory
    layout. Each term is an array operation over the whole stack. d >= 3 is
    the ``matmul`` pair, symmetrized as (c + c^dag) / 2. An entry that
    overflows is non-finite, without a warning.
    """
    if v.shape[-1] != 2:
        c = matmul(matmul(dagger(v), h), v)
        return (c + dagger(c)) / 2
    a, b, c, d = v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1]
    p, q, g = h[..., 0, 0], h[..., 1, 1], h[..., 0, 1]  # h is exactly Hermitian: p and q are real
    gr, gi = g.real.astype(complex), g.imag.astype(complex)  # cast once, not in each float-by-complex product
    ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    with np.errstate(over="ignore", invalid="ignore"):
        # h v's first column and D_00, then its second column: each temporary dies at its last read
        ia, ic = 1j * a, 1j * c
        h00, h10 = p * a + (gr * c + gi * ic), (gr * a - gi * ia) + q * c
        del ia, ic
        d00 = (ar * h00.real + ai * h00.imag) + (cr * h10.real + ci * h10.imag)
        del h00, h10
        ib, id_ = 1j * b, 1j * d
        h01, h11 = p * b + (gr * d + gi * id_), (gr * b - gi * ib) + q * d
        del gr, gi, ib, id_
        d11 = (br * h01.real + bi * h01.imag) + (dr * h11.real + di * h11.imag)
        re = (ar * h01.real + ai * h01.imag) + (cr * h11.real + ci * h11.imag)
        im = (ar * h01.imag - ai * h01.real) + (cr * h11.imag - ci * h11.real)
    out = np.empty(re.shape + (2, 2), dtype=complex)
    out.real[..., 0, 0], out.real[..., 1, 1], out.imag[..., 0, 0], out.imag[..., 1, 1] = d00, d11, 0.0, 0.0
    out.real[..., 0, 1], out.real[..., 1, 0], out.imag[..., 0, 1], out.imag[..., 1, 0] = re, re, im, -im
    return out


def frobenius_inner(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Frobenius inner product Tr[h^dag a] of each pair of matrices of two broadcasting (..., d, d) stacks.

    It is sum_ij conj(h_ij) a_ij, one complex ``vecdot`` of the contiguous
    flattened matrices, so for an exactly Hermitian h it is Tr[h a], with no
    d x d product formed; each pair's bits come from that pair alone,
    whatever the stack size, broadcasting or memory layout. It is the kernel
    for a complex trace, the Fisher tensor's; its real part alone is
    ``frobenius_real``, which costs half as much.
    """
    h, a = np.ascontiguousarray(h), np.ascontiguousarray(a)
    return np.vecdot(_flat(h), _flat(a))


def frobenius_real(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The real pairing Re Tr[h^dag a] of each pair of matrices of two broadcasting (..., d, d) stacks.

    It is sum_ij (Re h_ij Re a_ij + Im h_ij Im a_ij), one float ``vecdot`` of
    the contiguous flattened matrices viewed as their real and imaginary
    parts, the same formula at every d; for exactly Hermitian h and a it is
    Tr[h a]. A real operand is cast to complex first, so that its view holds
    a zero imaginary part. As for ``frobenius_inner``, each pair's bits come
    from that pair alone, whatever the stack size, broadcasting or memory
    layout.
    """
    h, a = np.ascontiguousarray(h, dtype=complex), np.ascontiguousarray(a, dtype=complex)
    return np.vecdot(_flat(h).view(float), _flat(a).view(float))


def _flat(a: np.ndarray) -> np.ndarray:
    """The contiguous (..., d, d) stack a as (..., d * d): an explicit length, so a stack of no rows reshapes too."""
    return a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in an (..., d, d) stack.

    Each matrix is scaled by the power of two of its largest real or
    imaginary part before its squares are summed by ``frobenius_real``, as
    ``optimize.maximize_cfi_stack`` scales |l|: the bits are those of
    sqrt(Re Tr[a^dag a]) where the squares neither overflow nor underflow,
    and entries of 1e-234 or 1e200 still give a nonzero, finite norm.
    """
    f = np.ascontiguousarray(a, dtype=complex).view(float)
    exp = np.frexp(_reduce_rows(np.maximum, np.abs(f), axes=2, initial=0.0))[1]
    scaled = np.ldexp(f, -exp[..., None, None]).view(complex)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(frobenius_real(scaled, scaled)), exp)


def _reduce_rows(ufunc, a: np.ndarray, axes: int = 1, initial=None) -> np.ndarray:
    """``ufunc.reduce`` of each row of a over its last ``axes`` axes, for ufunc ``np.maximum`` or ``np.minimum``.

    numpy reduces a row's few trailing entries in a loop of its own per row;
    here they are moved to the front of a contiguous (m, ...) copy and reduced
    along the stack axis, m - 1 elementwise calls over whole stacks. Max and
    min do not depend on the order, and a NaN propagates either way, so the
    value is numpy's ``a.max(axis=...)`` or ``a.min(axis=...)``, and so are
    its bits, except that a row mixing +0 and -0 may give either zero: the
    callers pass |x|, or only compare the result. ``initial`` is numpy's too
    (a row with no entries needs it).
    """
    lead = a.shape[: a.ndim - axes]
    cols = np.moveaxis(a.reshape(*lead, math.prod(a.shape[a.ndim - axes :])), -1, 0)
    return ufunc.reduce(np.ascontiguousarray(cols), axis=0, initial=initial)


def traces(a: np.ndarray) -> np.ndarray:
    """Trace of each matrix in a stack.

    A 2 x 2 stack is summed as 0 + a_00 + a_11, numpy's own order (its sum
    starts at +0, which decides the sign of a zero trace), as array operations
    rather than numpy's loop per matrix; d >= 3 goes to ``ndarray.trace``,
    whose order from d = 4 on is not a plain left-to-right sum.
    """
    if a.shape[-1] == 2:
        return 0.0 + a[..., 0, 0] + a[..., 1, 1]
    return a.trace(axis1=-2, axis2=-1)


def hermitian_part(m) -> np.ndarray:
    """Validate every matrix of a stack as Hermitian within HERMITIAN_RTOL; return the exactly symmetrized stack.

    The first non-Hermitian row raises NonHermitianInput with its defect.
    Rows are symmetrized as (a + a^dag) / 2, exact on exactly Hermitian rows,
    and halved first where an entry at or above 2^1023 could overflow the sum.
    An exactly Hermitian stack (a == a^dag entry for entry, as every curve
    family builds its states) has defect 0 in every row, so one comparison
    answers the check. When, besides, no real or imaginary part reaches
    +-2^1022 (four reductions of the parts, with no |a_ij| stack formed), no
    |a_ij| reaches 2^1023, and it returns the same (a + a^dag) / 2, halved in
    the sum's buffer. An exactly Hermitian stack with a part in [2^1022,
    2^1023) is judged row by row, whose answer is then the same bits. Any
    other stack is judged row by row on a / max(1, max|a_ij|), whose norms
    cannot overflow.
    """
    a = as_stack(m)
    ah, edge = _dagger_copy(a), 2.0**1022
    if (a == ah).all() and all(-edge < x.min(initial=0.0) and x.max(initial=0.0) < edge for x in (a.real, a.imag)):
        out = a + ah
        out /= 2
        return out
    s = _reduce_rows(np.maximum, np.abs(a), axes=2, initial=1.0)
    b = a / s[:, None, None]
    defect, norm = frobenius_norms(b - dagger(b)), frobenius_norms(b)
    bad = defect > HERMITIAN_RTOL * np.maximum(1.0 / s, norm)
    if bad.any():
        i = int(np.argmax(bad))
        scale = max(1.0, norm[i] * s[i])
        raise NonHermitianInput(f"Hermiticity defect {defect[i] * s[i]:.3e} exceeds {HERMITIAN_RTOL:.1e} * {scale:.3e}")
    huge = ~(s < 2.0**1023)
    if not huge.any():
        return (a + ah) / 2
    half = a / 2
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(huge[:, None, None], half + dagger(half), (a + ah) / 2)


def require_hermitian(m) -> np.ndarray:
    """Validate Hermiticity and return the exactly symmetrized matrix."""
    return hermitian_part(_square(m)[None])[0]


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of an exactly Hermitian matrix or stack: w ascending, V unitary.

    The eigenvectors are V's columns. It is ``np.linalg.eigh`` at every d, one
    LAPACK call per stack, so a row's bits depend on that row alone. A row with
    a NaN or infinite entry has NaN eigenvalues, or LAPACK fails to converge on
    it; either raises NonHermitianInput, instead of a NaN spectrum or numpy's
    LinAlgError. The check reads only the (..., d) spectrum, so finite
    entries whose eigenvalue lies beyond the float range give +-inf, as
    LAPACK returns it.
    """
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        raise NonHermitianInput("matrix has NaN, Inf or overflowing entries; eigendecomposition did not converge") from None
    if np.isnan(w).any():
        raise NonHermitianInput("matrix contains NaN or Inf entries")
    return w, v


def herm_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition M = V diag(w) V^dag with w ascending and V unitary.

    Raises NonHermitianInput if M is not Hermitian within tolerance.
    """
    return eigh(require_hermitian(m))


def psd_sqrt(m) -> np.ndarray:
    """Positive-semidefinite square root via eigendecomposition.

    Eigenvalues at or below SQRT_RANK_CUTOFF * max(1, lam_max) count as zero,
    so floating-point debris is not amplified to ~1e-6 by the root; an
    eigenvalue below -1e-10 raises NotPositiveSemidefinite.
    """
    return _psd_root(*herm_eigen(m))


def _psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``psd_sqrt`` of each matrix from its ascending eigenpairs: (..., d) w and (..., d, d) v."""
    low = w[..., 0] < PSD_EIGENVALUE_FLOOR
    if low.any():
        raise NotPositiveSemidefinite(f"minimum eigenvalue {w[..., 0][low][0]:.3e} below {PSD_EIGENVALUE_FLOOR:.1e}")
    w = np.where(w > SQRT_RANK_CUTOFF * np.maximum(1.0, w[..., -1:]), w, 0.0)
    return congruence(dagger(v), np.sqrt(w)[..., None] * np.eye(w.shape[-1], dtype=complex))


class DensityStack:
    """n density operators of one dimension as an (n, d, d) stack.

    Every row is checked to be Hermitian, of unit trace and positive
    semidefinite, each check once per row as an array operation. The
    eigendecomposition of the whole stack is one batched ``eigh``, unless the
    eigenpairs are known by construction (``from_eigenpairs``: the Householder
    lift of a pure state, ``states.pure_projector_stack``, and the chart point
    of a mixed qubit, ``states.chart_states``), and the PSD check
    reads whichever eigenvalues the stack holds. A failing row raises the error
    the matrix alone would raise; among several failing rows, the check listed
    first reports first. Instances are immutable.
    """

    def __init__(self, matrices):
        self._check_rows(matrices, eigh)

    @classmethod
    def from_eigenpairs(cls, matrices, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> "DensityStack":
        """The stack of ``matrices`` with the given ascending eigenvalues (n, d) and unitary eigenvectors (n, d, d).

        The rows are checked as ``DensityStack(matrices)`` checks them, the PSD
        floor on the given eigenvalues; only the eigensolve is skipped, so the
        eigenpairs are trusted to decompose the exactly symmetrized matrices.
        """
        stack = object.__new__(cls)
        stack._check_rows(matrices, lambda m: (eigenvalues, eigenvectors))
        return stack

    def _check_rows(self, matrices, eigenpairs) -> None:
        """Check every row, taking its eigenpairs from ``eigenpairs(m)`` of the symmetrized stack m, and hold them."""
        m = hermitian_part(matrices)
        bad = np.abs(traces(m).real - 1.0) > TRACE_TOL
        if bad.any():
            tr = float(np.trace(m[int(np.argmax(bad))]).real)
            raise NotNormalized(f"trace {tr!r} differs from 1 by more than 1e-9")
        w, v = eigenpairs(m)
        low = w[:, 0] < PSD_EIGENVALUE_FLOOR
        if low.any():
            raise NotPositiveSemidefinite(
                f"density operator has eigenvalue {w[int(np.argmax(low)), 0]:.3e}"
            )
        for a in (m, w, v):
            a.setflags(write=False)
        self.matrices, self.eigenvalues, self.eigenvectors = m, w, v

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, i: int) -> "DensityOp":
        """Row i as a DensityOp, without checking it again; a negative i counts from the end.

        An i outside [-n, n) raises IndexError, which also ends iteration.
        """
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"row {i} of a stack of {n}")
        row = object.__new__(DensityStack)
        rows = slice(i % n, i % n + 1)
        row.matrices, row.eigenvalues, row.eigenvectors = (
            self.matrices[rows], self.eigenvalues[rows], self.eigenvectors[rows]
        )
        op = object.__new__(DensityOp)
        op.stack = row
        return op


class DensityOp:
    """A density operator: Hermitian, unit trace, positive semidefinite.

    A one-row DensityStack (``stack``); the eigendecomposition is computed
    once at construction. Instances are treated as immutable.
    """

    def __init__(self, matrix):
        self.stack = DensityStack(_square(matrix)[None])

    @property
    def matrix(self) -> np.ndarray:
        return self.stack.matrices[0]

    @property
    def dim(self) -> int:
        return self.stack.dim

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.stack.eigenvalues[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.stack.eigenvectors[0]

    def __repr__(self) -> str:
        return f"DensityOp(dim={self.dim})"
