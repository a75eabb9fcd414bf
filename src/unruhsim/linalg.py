"""Hermiticity checks and Hermitian eigenvalues for the 6x6 problems in this
package, on one matrix or on a stack of them.

All functions are pure: inputs are never mutated and results are fresh
arrays, so values can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERMITICITY_TOL = 1e-12


def hermiticity_defect(h: np.ndarray):
    """Max-norm of (h - h^dagger); one value per matrix of a stack (..., n, n)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise DimensionMismatch(f"expected square matrices, got shape {h.shape}")
    defect = np.abs(h - np.swapaxes(h, -1, -2).conj()).max(axis=(-2, -1))
    return float(defect) if h.ndim == 2 else defect


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending; for a stack
    (..., n, n), those of each matrix in one LAPACK call.

    Raises NotHermitian when the max-norm of (h - h^dagger) exceeds
    ``HERMITICITY_TOL`` (for a stack, with the defect of the first such
    matrix); such a failure signals a bug upstream, not an input error.

    Backed by LAPACK's Hermitian eigensolver, which is deterministic and
    accurate far beyond the 1e-10 needed for the 6x6 problems here.
    """
    h = np.asarray(h, dtype=complex)
    defect = np.ravel(hermiticity_defect(h))
    if not defect.max() <= HERMITICITY_TOL:  # a NaN defect fails too
        raise NotHermitian(
            f"hermiticity defect {defect[(~(defect <= HERMITICITY_TOL)).argmax()]:.3e} "
            f"exceeds tolerance {HERMITICITY_TOL:.3e}"
        )
    return np.linalg.eigvalsh(h)
