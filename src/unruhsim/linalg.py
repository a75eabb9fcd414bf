"""Hermitian eigenvalues, checked by ``state``'s hermiticity rule, for one
matrix or a stack of them."""

from __future__ import annotations

import numpy as np

from .state import _require_hermitian, hermiticity_defect


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending; for a stack
    (..., n, n), those of each matrix in one LAPACK call.

    Raises NotHermitian for the first matrix whose hermiticity defect
    exceeds ``state.HERMITICITY_TOL`` or is nan: a bug upstream, not an
    input error.
    """
    h = np.asarray(h, dtype=complex)
    _require_hermitian(hermiticity_defect(h))
    return np.linalg.eigvalsh(h)
