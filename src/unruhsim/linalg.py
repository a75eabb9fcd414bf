"""Hermitian eigenvalues, checked by ``state``'s hermiticity rule, for one
matrix or a stack of them."""

from __future__ import annotations

import numpy as np

from .state import _require_hermitian, hermiticity_defect


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending; for a stack
    (..., n, n), those of each matrix in one LAPACK call.

    Raises DimensionMismatch unless the matrices are square and nonempty,
    and NotHermitian for the first matrix whose hermiticity defect exceeds
    ``state.HERMITICITY_TOL`` or is nan: a bug upstream, not an input error.
    """
    h = np.asarray(h, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # quiet on non-finite entries
        defect = hermiticity_defect(h)
    _require_hermitian(defect)
    return np.linalg.eigvalsh(h)
