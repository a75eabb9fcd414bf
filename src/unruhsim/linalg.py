"""Dense complex matrix helpers sized for the 6x6 problems in this package.

All functions are pure: inputs are never mutated and results are fresh
arrays, so values can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

# A ComplexMatrix is a 2-D numpy array of complex128 entries.
ComplexMatrix = np.ndarray

DEFAULT_HERMITICITY_TOL = 1e-12


def as_matrix(entries) -> ComplexMatrix:
    """Coerce to a finite 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product with the row-major index convention
    (i*b.rows + k, j*b.cols + l) <- a[i, j] * b[k, l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(a: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def mat_mul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def add(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot add {a.shape} and {b.shape}")
    return a + b


def scale(a: ComplexMatrix, s: complex) -> ComplexMatrix:
    return np.asarray(a, dtype=complex) * s


def trace(a: ComplexMatrix) -> complex:
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"trace of non-square matrix {a.shape}")
    return complex(np.trace(a))


def max_abs_diff(a: ComplexMatrix, b: ComplexMatrix) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot compare {a.shape} and {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def hermiticity_defect(h: ComplexMatrix):
    """Max-norm of (h - h^dagger); one value per matrix of a stack (..., n, n)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise DimensionMismatch(f"expected square matrices, got shape {h.shape}")
    defect = np.abs(h - np.swapaxes(h, -1, -2).conj()).max(axis=(-2, -1))
    return float(defect) if h.ndim == 2 else defect


def hermitian_eigenvalues(
    h: ComplexMatrix, tol: float = DEFAULT_HERMITICITY_TOL
) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending; for a stack
    (..., n, n), those of each matrix in one LAPACK call.

    Raises NotHermitian when the max-norm of (h - h^dagger) exceeds ``tol``
    (for a stack, with the defect of the first such matrix); such a failure
    signals a bug upstream, not an input error.

    Backed by LAPACK's Hermitian eigensolver, which is deterministic and
    accurate far beyond the 1e-10 needed for the 6x6 problems here.
    """
    h = np.asarray(h, dtype=complex)
    defect = np.ravel(hermiticity_defect(h))
    if defect.max() > tol:
        raise NotHermitian(
            f"hermiticity defect {defect[(defect > tol).argmax()]:.3e} exceeds "
            f"tolerance {tol:.3e}"
        )
    return np.linalg.eigvalsh(h)
