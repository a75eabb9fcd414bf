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

# validate_density's PSD certificate factorises rho + _PSD_SHIFT; half the
# bound leaves room for Cholesky's rounding.
_PSD_SHIFT = (PSD_TOL / 2) * np.eye(DIM)
_PSD_SHIFT.flags.writeable = False


def require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")


def hermiticity_defect(h: np.ndarray):
    """Max-norm of (h - h^dagger); one value per matrix of a stack (..., n, n)
    of n >= 1."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1] or not h.shape[-1]:
        raise DimensionMismatch(
            f"expected nonempty square matrices, got shape {h.shape}")
    defect = np.abs(h - np.swapaxes(h, -1, -2).conj()).max(axis=(-2, -1))
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
    """All real eigenvalues of a Hermitian matrix, ascending; for a stack
    (..., n, n), those of each matrix in one LAPACK call.

    Raises DimensionMismatch unless the matrices are square and nonempty,
    and NotHermitian for the first matrix whose hermiticity defect exceeds
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

    Takes a 6x6 matrix or an (N, 6, 6) stack, checked matrix by matrix,
    and returns a read-only copy of the same shape.

    A stack of valid shape is scanned once, for its hermiticity defects:
    finiteness is read off them, and the entries are checked for it
    (ValueError) only when a defect is not finite.
    When every matrix is Hermitian and of unit trace within tolerance,
    positive semidefiniteness is certified by one batched Cholesky
    factorisation of ``m + PSD_TOL/2 * I``: it succeeds only if every
    minimum eigenvalue lies above about -PSD_TOL/2, inside the -PSD_TOL
    bound.  Only when a check or the factorisation fails does one
    eigensolver call on the whole stack decide.

    Raises NotHermitian, TraceDeviation or NegativeEigenvalue with the
    measured defect when an invariant fails; in a stack, for the first
    failing matrix, checked in that order.
    """
    m = np.asarray(m, dtype=complex)
    ms = m[np.newaxis] if m.ndim == 2 else m
    if ms.ndim != 3:
        raise DimensionMismatch(f"expected a matrix or a stack, got ndim={m.ndim}")
    if ms.shape[1:] != (DIM, DIM) or not len(ms):
        require_finite(ms)
        raise OutOfRange(f"expected a {DIM}x{DIM} matrix or a nonempty stack "
                         f"of them, got shape {m.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # quiet on non-finite entries
        h_defect = hermiticity_defect(ms)
        tr_defect = np.abs(ms.trace(axis1=1, axis2=2) - 1.0)
    ok = (h_defect <= HERMITICITY_TOL) & (tr_defect <= TRACE_TOL)
    if not (ok.all() and _psd_certified(ms)):
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


def _psd_certified(ms) -> bool:
    """Whether one batched Cholesky factorisation of ``ms + _PSD_SHIFT``
    succeeds, which certifies every minimum eigenvalue above -PSD_TOL."""
    try:
        np.linalg.cholesky(ms + _PSD_SHIFT)
    except np.linalg.LinAlgError:
        return False
    return True


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
        raise DimensionMismatch(f"expected one r or an r axis, got ndim={axis.ndim}")
    rs = [require_parameter("r", x) for x in (axis.tolist() if axis.ndim else [r])]
    m = np.zeros((len(rs), DIM, DIM), dtype=complex)
    for rho, x in zip(m, rs):
        rho[1, 1] = rho[1, 3] = rho[3, 1] = rho[3, 3] = math.cos(x) ** 2 / 2
        rho[2, 2] = rho[5, 5] = math.sin(x) ** 2 / 2
    return validate_density(m if axis.ndim else m[0])
