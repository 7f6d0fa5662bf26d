"""Dense complex matrix primitives for small dimensions (d <= 8).

Conventions used everywhere downstream:

* matrices are ``numpy.ndarray`` with ``dtype=complex128``, row-major; n
  matrices of one dimension form a stack of shape ``(n, d, d)``;
* a matrix is accepted as Hermitian when ``||M - M^dag||_F <= 1e-12 * max(1, ||M||_F)``;
* eigenvalues are returned ascending, eigenvectors as unitary column matrices.

Eigendecompositions come from ``np.linalg.eigh``, which decomposes a whole
stack in one call. The single-matrix functions are the n = 1 case of the
stacked ones, so a matrix gives the same bits alone and as a row of a stack.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianInput,
    NotNormalized,
    NotPositiveSemidefinite,
)

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


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in an (n, d, d) stack."""
    x = a.reshape(len(a), -1)
    return np.sqrt(np.vecdot(x, x).real)


def traces(a: np.ndarray) -> np.ndarray:
    """Trace of each matrix in a stack."""
    return a.trace(axis1=-2, axis2=-1)


def hermitian_part(m, *, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate every matrix of a stack as Hermitian; return the exactly symmetrized stack.

    The first non-Hermitian row raises NonHermitianInput with its defect.
    """
    a = as_stack(m)
    s = np.abs(a).max(axis=(1, 2), initial=1.0)  # norms of a / s cannot overflow
    b = a / s[:, None, None]
    defect, norm = frobenius_norms(b - dagger(b)), frobenius_norms(b)
    bad = defect > rtol * np.maximum(1.0 / s, norm)
    if bad.any():
        i = int(np.argmax(bad))
        scale = max(1.0, norm[i] * s[i])
        raise NonHermitianInput(f"Hermiticity defect {defect[i] * s[i]:.3e} exceeds {rtol:.1e} * {scale:.3e}")
    return (a + dagger(a)) / 2


def require_hermitian(m, *, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate Hermiticity and return the exactly symmetrized matrix."""
    return hermitian_part(_square(m)[None], rtol=rtol)[0]


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of an exactly Hermitian matrix or stack: w ascending, V unitary.

    LAPACK does not converge on entries that overflow; that raises
    NonHermitianInput, as non-finite entries do, instead of numpy's LinAlgError.
    """
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        raise NonHermitianInput("matrix entries overflow; eigendecomposition did not converge") from None


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
    """``psd_sqrt`` from the ascending eigenpairs (w, v) of the matrix."""
    if w[0] < PSD_EIGENVALUE_FLOOR:
        raise NotPositiveSemidefinite(f"minimum eigenvalue {w[0]:.3e} below {PSD_EIGENVALUE_FLOOR:.1e}")
    w = np.where(w > SQRT_RANK_CUTOFF * max(1.0, float(w[-1])), w, 0.0)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2


def comm_anticomm(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Return ([A, B], {A, B}) = (AB - BA, AB + BA)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    ab = a @ b
    ba = b @ a
    return ab - ba, ab + ba


class DensityStack:
    """n density operators of one dimension as an (n, d, d) stack.

    Every row is checked to be Hermitian, of unit trace and positive
    semidefinite, each check once per row as an array operation, and the
    eigendecomposition of the whole stack is one batched ``eigh``. A failing
    row raises the error the matrix alone would raise; among several failing
    rows, the check listed first reports first. Instances are immutable.
    """

    def __init__(self, matrices):
        m = hermitian_part(matrices)
        bad = np.abs(traces(m).real - 1.0) > TRACE_TOL
        if bad.any():
            tr = float(np.trace(m[int(np.argmax(bad))]).real)
            raise NotNormalized(f"trace {tr!r} differs from 1 by more than 1e-9")
        w, v = eigh(m)
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
        """Row i as a DensityOp, without checking it again."""
        row = object.__new__(DensityStack)
        rows = slice(i, i + 1)
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

    @cached_property
    def sqrt(self) -> np.ndarray:
        return _psd_root(self.eigenvalues, self.eigenvectors)

    def __repr__(self) -> str:
        return f"DensityOp(dim={self.dim})"
