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
from .linalg import HERMITICITY_TOL, hermiticity_defect

R_MAX = math.pi / 4

TRACE_TOL = 1e-12
PSD_TOL = 1e-10

DIM = 6


def require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")


def require_parameter(name: str, value: float) -> float:
    """The range rule: ``value`` as a float if it lies in [0, pi/4] for ``r``
    or in [0, 1] for a decoherence parameter, else OutOfRange (nan too)."""
    r = name == "r"
    if not 0.0 <= value <= (R_MAX if r else 1.0):
        what, hi = ("acceleration", "pi/4") if r else ("decoherence", "1")
        raise OutOfRange(f"{what} parameter {name}={value!r} outside [0, {hi}]")
    return float(value)


def validate_density(m) -> np.ndarray:
    """Check the density-matrix invariants and freeze the result.

    Takes a 6x6 matrix or an (N, 6, 6) stack, checked matrix by matrix
    with one eigensolver call for the whole stack, and returns a read-only
    copy of the same shape.

    Raises NotHermitian, TraceDeviation or NegativeEigenvalue with the
    measured defect when an invariant fails; in a stack, for the first
    failing matrix, checked in that order.
    """
    m = np.asarray(m, dtype=complex)
    ms = m[np.newaxis] if m.ndim == 2 else m
    if ms.ndim != 3:
        raise DimensionMismatch(f"expected a matrix or a stack, got ndim={m.ndim}")
    require_finite(ms)
    if ms.shape[1:] != (DIM, DIM) or not len(ms):
        raise OutOfRange(f"expected a {DIM}x{DIM} matrix or a nonempty stack "
                         f"of them, got shape {m.shape}")
    h_defect = hermiticity_defect(ms)
    tr_defect = np.abs(ms.trace(axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh(ms)[:, 0]
    if (h_defect.max() > HERMITICITY_TOL or tr_defect.max() > TRACE_TOL
            or min_eig.min() < -PSD_TOL):
        i = ((h_defect > HERMITICITY_TOL) | (tr_defect > TRACE_TOL)
             | (min_eig < -PSD_TOL)).argmax()
        if h_defect[i] > HERMITICITY_TOL:
            raise NotHermitian(
                f"hermiticity defect {h_defect[i]:.3e} exceeds "
                f"{HERMITICITY_TOL:.3e}"
            )
        if tr_defect[i] > TRACE_TOL:
            raise TraceDeviation(
                f"trace deviates from 1 by {tr_defect[i]:.3e} "
                f"(tolerance {TRACE_TOL:.3e})"
            )
        raise NegativeEigenvalue(
            f"minimum eigenvalue {min_eig[i]:.3e} below -{PSD_TOL:.3e}"
        )
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
        raise DimensionMismatch(f"expected one r or an r axis, got ndim={axis.ndim}")
    rs = [require_parameter("r", x) for x in (axis.tolist() if axis.ndim else [r])]
    m = np.zeros((len(rs), DIM, DIM), dtype=complex)
    for rho, x in zip(m, rs):
        rho[1, 1] = rho[1, 3] = rho[3, 1] = rho[3, 3] = math.cos(x) ** 2 / 2
        rho[2, 2] = rho[5, 5] = math.sin(x) ** 2 / 2
    return validate_density(m if axis.ndim else m[0])
