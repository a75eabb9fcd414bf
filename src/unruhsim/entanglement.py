"""Partial transpose over the qubit and entanglement negativity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import hermitian_eigenvalues  # loads linalg, which the tracer wraps
from .state import DIM, require_finite

# Eigenvalues above this threshold are treated as eigensolver noise, so
# separable states report exactly zero negativity.
NEGATIVE_EIG_THRESHOLD = -1e-12


@dataclass(frozen=True)
class PtSpectrum:
    """Spectrum of the partially transposed state.

    ``negativity`` is the absolute sum of the strictly negative
    eigenvalues; ``min_eigenvalue`` is exposed separately so sudden-death
    detection can track the sign crossing directly.
    """

    eigenvalues: tuple[float, ...]
    negativity: float
    min_eigenvalue: float


def partial_transpose_qubit(rho) -> np.ndarray:
    """Transpose the qubit indices only: block (A,B) <- block (B,A).

    Under the 3A+a index convention this swaps the two off-diagonal 3x3
    blocks and keeps the diagonal blocks; an (N, 6, 6) stack is transposed
    matrix by matrix.
    """
    m = np.asarray(rho, complex)
    out = m.copy()
    out[..., 0:3, 3:6] = m[..., 3:6, 0:3]
    out[..., 3:6, 0:3] = m[..., 0:3, 3:6]
    return out


def pt_spectra(matrices, validated: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """PT eigenvalues (..., 6), ascending, and negativities (...) of a
    6x6 matrix or of each matrix in an (N, 6, 6) stack, from one
    eigensolver call.

    The partial transposes are checked for hermiticity unless
    ``validated`` says every matrix has passed ``validate_density``: the
    transpose only moves entries, pairing each (i, j) with the same
    partner (j, i) as before, so its hermiticity defect is the matrix's
    own, bit for bit.
    """
    pt = partial_transpose_qubit(matrices)
    eig = np.linalg.eigvalsh(pt) if validated else hermitian_eigenvalues(pt)
    # Eigenvalues ascend, so the negative ones are a prefix of each row and
    # the zero padding leaves the row sums bit-equal to a masked sum.
    neg = -np.where(eig < NEGATIVE_EIG_THRESHOLD, eig, 0.0).sum(axis=-1)
    return eig, neg


def negativity(rho) -> PtSpectrum:
    """Negativity of a state: sum of |negative eigenvalues| of its partial
    transpose over the qubit.

    Accepts one finite 6x6 matrix, a validated state or a raw Hermitian one
    (used for diagnostics of non-trace-preserving evolutions).
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape != (DIM, DIM):
        raise DimensionMismatch(f"expected a {DIM}x{DIM} matrix, got shape {m.shape}")
    require_finite(m)
    eig, neg = pt_spectra(m)
    return PtSpectrum(
        eigenvalues=tuple(eig.tolist()),
        negativity=float(neg),
        min_eigenvalue=float(eig[0]),
    )
