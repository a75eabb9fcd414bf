"""The accelerated-observer qubit-qutrit state and density-matrix validation.

Basis convention, used by every module in the package: composite index
``3*A + a`` for qubit level ``A`` in {0, 1} and qutrit level ``a`` in
{0, 1, 2}.  The acceleration parameter ``r`` runs from 0 (inertial) to
pi/4 (infinite-acceleration limit); the shared entanglement carries a
cos^2(r) envelope.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NotHermitian,
    OutOfRange,
    TraceDeviation,
)

R_MAX = math.pi / 4

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

DIM = 6


def require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")


def require_matrices(m: np.ndarray) -> None:
    """The shape rule: DimensionMismatch unless ``m`` holds one or more
    6x6 matrices, as one (6, 6) array or a nonempty stack (..., 6, 6)."""
    if m.shape[-2:] != (DIM, DIM) or not m.size:
        raise DimensionMismatch(f"expected {DIM}x{DIM} matrices, got shape {m.shape}")


# Flat positions in a 6x6 matrix of its upper triangle, diagonal included
# (row 0: 6i + j), and of their mirror entries (row 1: 6j + i).
_TRIANGLE = np.array([[DIM, 1], [1, DIM]]) @ np.triu_indices(DIM)
_TRIANGLE.flags.writeable = False


def hermiticity_defect(h: np.ndarray):
    """Max-norm of (h - h^dagger); one value per matrix of a stack (..., 6, 6).

    Every matrix the package checks is a 6x6 qubit-qutrit operator, so any
    other shape raises ``require_matrices``' DimensionMismatch.  Read off
    the upper triangle: |h_ij - conj(h_ji)| and |h_ji - conj(h_ij)| are the
    same float, bit for bit, so the other entries add nothing.
    """
    h = np.asarray(h, dtype=complex)
    require_matrices(h)
    pair = h.reshape(*h.shape[:-2], DIM * DIM)[..., _TRIANGLE]
    defect = np.abs(pair[..., 0, :] - pair[..., 1, :].conj()).max(axis=-1)
    return float(defect) if h.ndim == 2 else defect


def _require_hermitian(defect) -> None:
    """The hermiticity rule: NotHermitian, naming the defect of the first
    matrix whose defect exceeds ``HERMITICITY_TOL`` or is nan."""
    defect = np.ravel(defect)
    bad = ~(defect <= HERMITICITY_TOL)
    if bad.any():
        raise NotHermitian(f"hermiticity defect {defect[bad.argmax()]:.3e} "
                           f"exceeds {HERMITICITY_TOL:.3e}")


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian 6x6 matrix, ascending; for a
    stack (..., 6, 6), those of each matrix in one LAPACK call.

    Raises DimensionMismatch for any other shape, and NotHermitian
    for the first matrix whose hermiticity defect exceeds
    ``HERMITICITY_TOL`` or is nan: a bug upstream, not an input error.
    """
    h = np.asarray(h, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # quiet on non-finite entries
        _require_hermitian(hermiticity_defect(h))
    return np.linalg.eigvalsh(h)


def require_parameter(name: str, value: float) -> float:
    """The range rule: ``value`` as a float if it lies in [0, pi/4] for ``r``
    or in [0, 1] for a decoherence parameter, else OutOfRange (nan too),
    whose text names the value as that float whatever its number type."""
    r = name == "r"
    if not 0.0 <= value <= (R_MAX if r else 1.0):
        what, hi = ("acceleration", "pi/4") if r else ("decoherence", "1")
        raise OutOfRange(f"{what} parameter {name}={float(value)!r} outside [0, {hi}]")
    return float(value)


def validate_density(m) -> np.ndarray:
    """Check the density-matrix invariants and freeze the result.

    Takes any nonempty (..., 6, 6) stack, checked as its flat stack of
    matrices, and returns a read-only copy of the same shape.  Any other
    shape raises ``require_matrices``' DimensionMismatch, after a
    ValueError for any non-finite entry.

    A stack of valid shape is scanned once, for its hermiticity defects:
    finiteness is read off them, and the entries are checked for it
    (ValueError) only when a defect is not finite.
    When every matrix is Hermitian and of unit trace within tolerance,
    positive semidefiniteness is certified by Gershgorin's disc theorem
    when every row i of every matrix has slack_i = 2 Re m_ii - sum_j |m_ij|
    >= -PSD_TOL/2.  The eigensolver reads the Hermitian matrix of the lower
    triangle; its disc i has centre Re m_ii <= |m_ii|, and each mirrored
    entry of its radius differs from m_ij by at most the hermiticity
    defect (<= HERMITICITY_TOL), so every eigenvalue lies above
    -5e-11 - 5e-12, inside the -PSD_TOL bound.  Only when a check or the
    bound fails does one eigensolver call on the whole stack decide.

    Raises NotHermitian, TraceDeviation or NegativeEigenvalue with the
    measured defect when an invariant fails; in a stack, for the first
    failing matrix, checked in that order.
    """
    m = np.asarray(m, dtype=complex)
    try:
        require_matrices(m)
    except DimensionMismatch:
        require_finite(m)
        raise
    ms = m.reshape(-1, DIM, DIM)
    with np.errstate(invalid="ignore", over="ignore"):  # quiet on non-finite entries
        h_defect = hermiticity_defect(ms)
        diag = ms.diagonal(axis1=1, axis2=2)
        tr_defect = np.abs(diag.sum(axis=1) - 1.0)  # bit for bit ms.trace
        slack = 2 * diag.real - np.abs(ms).sum(axis=2)
    ok = (h_defect <= HERMITICITY_TOL) & (tr_defect <= TRACE_TOL)
    if not (ok.all() and slack.min() >= -PSD_TOL / 2):
        # A nan or inf entry makes its matrix's defect nan or inf, so passing
        # defects show finite entries.  An inf defect may also come from
        # finite entries that overflow; the rule below then names it.
        if not h_defect.max() < math.inf:
            require_finite(ms)
        min_eig = np.linalg.eigvalsh(ms)[:, 0]
        failing = ~ok | (min_eig < -PSD_TOL)
        if failing.any():
            i = failing.argmax()
            _require_hermitian(h_defect[:i + 1])
            if not ok[i]:
                raise TraceDeviation(f"trace deviates from 1 by {tr_defect[i]:.3e} "
                                     f"(tolerance {TRACE_TOL:.3e})")
            raise NegativeEigenvalue(
                f"minimum eigenvalue {min_eig[i]:.3e} below -{PSD_TOL:.3e}")
    out = m.copy()
    out.flags.writeable = False
    return out


def unruh_state(r) -> np.ndarray:
    """Qubit-qutrit state shared with a uniformly accelerated observer.

    Nonzero entries: cos^2(r)/2 at (1,1), (1,3), (3,1), (3,3) and
    sin^2(r)/2 at (2,2), (5,5).  At r = 0 this is the maximally entangled
    two-level Bell state embedded in the qubit-qutrit space.

    Takes one r, for one 6x6 state, or a 1-D r axis, for the (N, 6, 6)
    stack of its states, checked by one ``validate_density`` call.
    """
    axis = np.asarray(r, dtype=float)
    if axis.ndim > 1:
        raise DimensionMismatch(f"expected one r or an r axis, got shape {axis.shape}")
    rs = [require_parameter("r", x) for x in (axis.tolist() if axis.ndim else [r])]
    m = np.zeros((len(rs), DIM, DIM), dtype=complex)
    for rho, x in zip(m, rs):
        rho[1, 1] = rho[1, 3] = rho[3, 1] = rho[3, 3] = math.cos(x) ** 2 / 2
        rho[2, 2] = rho[5, 5] = math.sin(x) ** 2 / 2
    return validate_density(m if axis.ndim else m[0])
