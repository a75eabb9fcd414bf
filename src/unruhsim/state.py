"""The accelerated-observer qubit-qutrit state and density-matrix validation.

Basis convention, used by every module in the package: composite index
``3*A + a`` for qubit level ``A`` in {0, 1} and qutrit level ``a`` in
{0, 1, 2}.  The acceleration parameter ``r`` runs from 0 (inertial) to
pi/4 (infinite-acceleration limit); the shared entanglement carries a
cos^2(r) envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NotHermitian,
    OutOfRange,
    TraceDeviation,
)
from .linalg import hermiticity_defect

R_MAX = math.pi / 4

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

DIM = 6


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 6x6 density matrix (Hermitian, PSD, unit trace)."""

    matrix: np.ndarray

    @property
    def m(self) -> np.ndarray:
        return self.matrix


def validate_density(
    m,
    hermiticity_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    psd_tol: float = PSD_TOL,
):
    """Check the density-matrix invariants and freeze the result.

    A 6x6 matrix comes back wrapped in a DensityMatrix.  An (N, 6, 6)
    stack is checked matrix by matrix, with one eigensolver call for the
    whole stack, and comes back as a read-only array.

    Raises NotHermitian, TraceDeviation or NegativeEigenvalue with the
    measured defect when an invariant fails; in a stack, for the first
    failing matrix, checked in that order.
    """
    m = np.asarray(m, dtype=complex)
    single = m.ndim == 2
    ms = m[np.newaxis] if single else m
    if ms.ndim != 3:
        raise DimensionMismatch(f"expected a matrix or a stack, got ndim={m.ndim}")
    if not np.isfinite(ms).all():
        raise ValueError("matrix contains non-finite entries")
    if ms.shape[1:] != (DIM, DIM):
        raise OutOfRange(f"expected a {DIM}x{DIM} matrix, got {ms.shape[1:]}")
    h_defect = hermiticity_defect(ms)
    tr_defect = np.abs(ms.trace(axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh(ms)[:, 0]
    if (h_defect.max() > hermiticity_tol or tr_defect.max() > trace_tol
            or min_eig.min() < -psd_tol):
        i = ((h_defect > hermiticity_tol) | (tr_defect > trace_tol)
             | (min_eig < -psd_tol)).argmax()
        if h_defect[i] > hermiticity_tol:
            raise NotHermitian(
                f"hermiticity defect {h_defect[i]:.3e} exceeds "
                f"{hermiticity_tol:.3e}"
            )
        if tr_defect[i] > trace_tol:
            raise TraceDeviation(
                f"trace deviates from 1 by {tr_defect[i]:.3e} "
                f"(tolerance {trace_tol:.3e})"
            )
        raise NegativeEigenvalue(
            f"minimum eigenvalue {min_eig[i]:.3e} below -{psd_tol:.3e}"
        )
    out = m.copy()
    out.flags.writeable = False
    return DensityMatrix(out) if single else out


def unruh_state(r: float) -> DensityMatrix:
    """Qubit-qutrit state shared with a uniformly accelerated observer.

    Nonzero entries: cos^2(r)/2 at (1,1), (1,3), (3,1), (3,3) and
    sin^2(r)/2 at (2,2), (5,5).  At r = 0 this is the maximally entangled
    two-level Bell state embedded in the qubit-qutrit space.
    """
    if not (0.0 <= r <= R_MAX):
        raise OutOfRange(f"acceleration parameter r={r!r} outside [0, pi/4]")
    c2 = math.cos(r) ** 2
    s2 = math.sin(r) ** 2
    m = np.zeros((DIM, DIM), dtype=complex)
    for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
        m[i, j] = c2 / 2
    m[2, 2] = s2 / 2
    m[5, 5] = s2 / 2
    return validate_density(m)


def reduced_qubit(rho: DensityMatrix) -> np.ndarray:
    """Partial trace over the qutrit: 2x2 reduced state."""
    m = rho.matrix.reshape(2, 3, 2, 3)
    return np.einsum("iaja->ij", m)


def reduced_qutrit(rho: DensityMatrix) -> np.ndarray:
    """Partial trace over the qubit: 3x3 reduced state."""
    m = rho.matrix.reshape(2, 3, 2, 3)
    return np.einsum("iaib->ab", m)
