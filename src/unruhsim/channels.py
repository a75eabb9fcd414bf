"""Kraus operator sets for the four noise channels and their application.

Channel kinds pair a single-qubit set with a single-qutrit set:

* ``phase_flip``          - qubit phase flip + qutrit phase flip
* ``dephasing``           - qubit dephasing + qutrit dephasing
* ``bit_trit_flip``       - qubit bit flip + qutrit trit flip
* ``bit_trit_phase_flip`` - qubit bit-phase flip + qutrit trit phase flip

Two of the qutrit sets circulate in a form that violates the completeness
relation sum(E^dag E) = I: the dephasing set (stray unit entries at (0,0)
of E1 and E2, defect 2 in max-norm) and the trit phase flip set (identity
coefficient sqrt(1-2p/3) instead of sqrt(1-p), defect p/3).  The
``corrected`` variant (default) applies exactly those minimal repairs; the
``as_printed`` variant keeps the literal matrices for diagnostics.

The 3x3 matrices can be read against the qutrit basis either exactly as
typeset (``level_order="printed"``, level 0 first) or in reversed level
order (``level_order="reversed"``, level 2 first, the default).  The
reversed reading is the unique one under which the multilocal phase-flip
pipeline reproduces the closed-form minimum partial-transpose eigenvalue
in :mod:`unruhsim.analytic` exactly; the flip channels and all
completeness defects are invariant under the choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CompletenessViolation, DimensionMismatch, OutOfRange
from .state import validate_density

PHASE_FLIP = "phase_flip"
DEPHASING = "dephasing"
BIT_TRIT_FLIP = "bit_trit_flip"
BIT_TRIT_PHASE_FLIP = "bit_trit_phase_flip"
KINDS = (PHASE_FLIP, DEPHASING, BIT_TRIT_FLIP, BIT_TRIT_PHASE_FLIP)

AS_PRINTED = "as_printed"
CORRECTED = "corrected"
VARIANTS = (AS_PRINTED, CORRECTED)

PRINTED = "printed"
REVERSED = "reversed"
DEFAULT_LEVEL_ORDER = REVERSED

MULTILOCAL = "multilocal"
GLOBAL = "global"
COUPLINGS = (MULTILOCAL, GLOBAL)

PRODUCT = "product"
CORRELATED = "correlated"
GLOBAL_MODES = (PRODUCT, CORRELATED)

COMPLETENESS_TOL = 1e-12
# Sets kept by ``_kraus_set``.  One ``evolve`` call over a chunk of a
# global verify grid (the 11 specs of one (p1, p2) pair) needs 12: its 11
# collective sets and the local one.  256 raised the peak memory of the
# six verify reports by 1.1 MiB.
_SET_CACHE_SIZE = 32

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3, dtype=complex)
_OMEGA = complex(np.exp(2j * np.pi / 3))


@dataclass(frozen=True)
class ChannelSpec:
    """A fully specified channel: kind, coupling and decoherence parameters.

    ``p1`` and ``p2`` are the local qubit and qutrit parameters; ``p`` is
    the collective parameter used only for global coupling.
    """

    kind: str
    coupling: str
    p1: float = 0.0
    p2: float = 0.0
    p: float = 0.0
    global_mode: str = PRODUCT
    variant: str = CORRECTED
    level_order: str = DEFAULT_LEVEL_ORDER

    def __post_init__(self):
        if self.kind not in KINDS:
            raise OutOfRange(f"unknown channel kind {self.kind!r}")
        if self.coupling not in COUPLINGS:
            raise OutOfRange(f"unknown coupling {self.coupling!r}")
        if self.global_mode not in GLOBAL_MODES:
            raise OutOfRange(f"unknown global mode {self.global_mode!r}")
        if self.variant not in VARIANTS:
            raise OutOfRange(f"unknown variant {self.variant!r}")
        if self.level_order not in (PRINTED, REVERSED):
            raise OutOfRange(f"unknown level order {self.level_order!r}")
        for name in ("p1", "p2", "p"):
            _check_p(getattr(self, name), name)


def _check_p(p: float, name: str = "p") -> float:
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"decoherence parameter {name}={p!r} outside [0, 1]")
    return float(p)


def qubit_channel(kind: str, p: float) -> tuple[np.ndarray, ...]:
    """Single-qubit Kraus set for the qubit half of ``kind``.

    All four qubit sets satisfy the completeness relation for every p.
    """
    p = _check_p(p)
    if kind == PHASE_FLIP:
        ops = (
            math.sqrt(1 - p / 2) * _I2,
            math.sqrt(p / 2) * np.diag([1.0, -1.0]).astype(complex),
        )
    elif kind == DEPHASING:
        ops = (
            np.diag([1.0, math.sqrt(1 - p)]).astype(complex),
            np.diag([0.0, math.sqrt(p)]).astype(complex),
        )
    elif kind == BIT_TRIT_FLIP:
        ops = (
            math.sqrt(1 - p / 2) * _I2,
            math.sqrt(p / 2) * np.array([[0, 1], [1, 0]], dtype=complex),
        )
    elif kind == BIT_TRIT_PHASE_FLIP:
        ops = (
            math.sqrt(1 - p / 2) * _I2,
            math.sqrt(p / 2) * np.array([[0, -1j], [1j, 0]], dtype=complex),
        )
    else:
        raise OutOfRange(f"unknown channel kind {kind!r}")
    return ops


def _qutrit_ops_printed(kind: str, p: float, variant: str) -> list[np.ndarray]:
    """The 3x3 operator matrices in the typeset level order (0 first)."""
    q = math.sqrt(1 - p)
    sp = math.sqrt(p)
    if kind == PHASE_FLIP:
        e0 = np.diag([1.0, q, q]).astype(complex)
        e1 = np.zeros((3, 3), dtype=complex)
        e1[0, 1] = sp
        e2 = np.zeros((3, 3), dtype=complex)
        e2[0, 2] = sp
        return [e0, e1, e2]
    if kind == DEPHASING:
        e0 = np.diag([1.0, q, q]).astype(complex)
        e1 = np.diag([0.0, sp, 0.0]).astype(complex)
        e2 = np.diag([0.0, 0.0, sp]).astype(complex)
        if variant == AS_PRINTED:
            # The circulating form carries stray unit (0,0) entries.
            e1[0, 0] = 1.0
            e2[0, 0] = 1.0
        return [e0, e1, e2]
    if kind == BIT_TRIT_FLIP:
        w = math.sqrt(p / 3)
        cyc = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        return [math.sqrt(1 - 2 * p / 3) * _I3, w * cyc, w * (cyc @ cyc)]
    if kind == BIT_TRIT_PHASE_FLIP:
        w = math.sqrt(p / 3)
        om, omc = _OMEGA, _OMEGA.conjugate()
        e1 = w * np.array([[0, 0, om], [1, 0, 0], [0, omc, 0]], dtype=complex)
        e2 = w * np.array([[0, omc, 0], [0, 0, om], [1, 0, 0]], dtype=complex)
        e3 = w * np.array([[0, om, 0], [0, 0, omc], [1, 0, 0]], dtype=complex)
        coeff = math.sqrt(1 - 2 * p / 3) if variant == AS_PRINTED else q
        return [coeff * _I3, e1, e2, e3]
    raise OutOfRange(f"unknown channel kind {kind!r}")


def qutrit_channel(
    kind: str,
    p: float,
    variant: str = CORRECTED,
    level_order: str = DEFAULT_LEVEL_ORDER,
) -> tuple[np.ndarray, ...]:
    """Single-qutrit Kraus set for the qutrit half of ``kind``.

    ``variant=AS_PRINTED`` keeps the literal circulating matrices even
    where they violate completeness; the default repairs them minimally.
    """
    p = _check_p(p)
    if variant not in VARIANTS:
        raise OutOfRange(f"unknown variant {variant!r}")
    if level_order not in (PRINTED, REVERSED):
        raise OutOfRange(f"unknown level order {level_order!r}")
    ops = _qutrit_ops_printed(kind, p, variant)
    if level_order == REVERSED:  # level 2 first
        ops = [e[::-1, ::-1] for e in ops]
    return tuple(ops)


def completeness_defect(ops) -> float:
    """Max-norm of (sum E^dag E - I)."""
    e = np.asarray(ops)
    acc = (e.conj().transpose(0, 2, 1) @ e).sum(axis=0)
    return float(np.max(np.abs(acc - np.eye(e.shape[-1]))))


def _check_dim(ops, dim: int, name: str) -> None:
    if ops[0].shape != (dim, dim):
        raise DimensionMismatch(f"{name} expects dim {dim}, got {ops[0].shape[0]}")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tensor products a (x) b over the last two axes (index
    i*dim(b) + k), broadcast over the leading ones, as one multiply: entry
    for entry the same product numpy's kron takes, without its per-call
    overhead."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3],
                                         out.shape[-2] * out.shape[-1]))


def lift_qubit(ops) -> tuple[np.ndarray, ...]:
    """Tensor each qubit operator with the qutrit identity (index 3A+a)."""
    _check_dim(ops, 2, "lift_qubit")
    return tuple(_kron(e, _I3) for e in ops)


def lift_qutrit(ops) -> tuple[np.ndarray, ...]:
    """Tensor each qutrit operator with the qubit identity (index 3A+a)."""
    _check_dim(ops, 3, "lift_qutrit")
    return tuple(_kron(_I2, e) for e in ops)


def _tensor_set(qubit_ops, qutrit_ops, global_mode: str = PRODUCT):
    """The 6x6 set of a qubit set and a qutrit set (index 3A+a), as one
    (K, 6, 6) stack.

    ``product`` tensors every qubit operator with every qutrit operator
    (qubit outer, qutrit inner); ``correlated`` pairs them index by index,
    padding the shorter set with zeros.
    """
    a, b = np.asarray(qubit_ops), np.asarray(qutrit_ops)
    if global_mode == PRODUCT:
        return _kron(a[:, None], b[None, :]).reshape(-1, 6, 6)
    if global_mode != CORRELATED:
        raise OutOfRange(f"unknown global mode {global_mode!r}")
    n = max(len(a), len(b))
    pad = lambda e: np.concatenate([e, np.zeros((n - len(e),) + e.shape[1:], complex)])
    return _kron(pad(a), pad(b))


@functools.lru_cache(maxsize=_SET_CACHE_SIZE)
def _kraus_set(kind, qubit_p, qutrit_p, global_mode, variant, level_order):
    """The read-only 6x6 set of ``kind``'s qubit set at ``qubit_p`` and
    qutrit set at ``qutrit_p``, and its completeness defect, built once
    per key while it stays among the most recently used."""
    ops = _tensor_set(qubit_channel(kind, qubit_p),
                      qutrit_channel(kind, qutrit_p, variant, level_order),
                      global_mode)
    ops.flags.writeable = False
    return tuple(ops), completeness_defect(ops)


def apply_unchecked(ops, matrix: np.ndarray) -> np.ndarray:
    """sum E rho E^dag without any revalidation of the result.

    ``matrix`` may be one 6x6 matrix or a stack (..., 6, 6); each operator
    is applied to the whole stack at once.
    """
    out = np.zeros_like(np.asarray(matrix, dtype=complex))
    for e in ops:
        out += e @ matrix @ e.conj().T
    return out


_INCOMPLETE_SET = (
    "Kraus set {kind!r} ({variant}) has completeness defect {defect:.3e}; "
    "evolution would not preserve the trace"
)
_INCOMPLETE_GLOBAL = (
    "{kind!r} global evolution in {global_mode!r} mode uses a "
    "Kraus set with completeness defect {defect:.3e}"
)


def apply(ops, rho) -> np.ndarray:
    """Evolve a state through a 6-dimensional Kraus set and revalidate.

    Raises CompletenessViolation (with the measured defect) when the set
    is not trace preserving; incomplete sets are never silently
    renormalized.
    """
    _check_dim(ops, 6, "apply")
    defect = completeness_defect(ops)
    if defect > COMPLETENESS_TOL:
        raise CompletenessViolation(
            f"Kraus set has completeness defect {defect:.3e}; "
            "evolution would not preserve the trace", defect=defect)
    return validate_density(apply_unchecked(ops, np.asarray(rho, complex)))


def collective_set(
    kind: str,
    p: float,
    global_mode: str = PRODUCT,
    variant: str = CORRECTED,
    level_order: str = DEFAULT_LEVEL_ORDER,
) -> tuple[np.ndarray, ...]:
    """The shared-environment Kraus set acting on the full 6-level system.

    ``product`` tensors every qubit operator with every qutrit operator
    and is the unique trace-preserving completion.  ``correlated`` pairs
    operators index by index, padding the shorter set with zeros; it
    generally violates completeness, which callers must check.  The
    operators are the read-only ones ``evolve`` takes from its cache.
    """
    return _kraus_set(kind, p, p, global_mode, variant, level_order)[0]


def evolve(rho, specs, allow_incomplete: bool = False) -> np.ndarray:
    """Evolve a 6x6 state, or an (N, 6, 6) stack of them, through a
    ChannelSpec, or through each of a sequence of specs that differ only in
    p1, p2 and p: the one evaluation path.

    The stack goes through each distinct local set at (p1, p2) once; for
    global coupling, each spec's local result then goes through its own
    collective set.  Sets come from the bounded ``_kraus_set`` cache with
    their completeness defects.  The result has the shape of ``rho``, with
    a leading spec axis for a sequence.  Every matrix of a trace-preserving
    spec is validated; the result is read-only when every spec is trace
    preserving.  A spec that is not raises CompletenessViolation, as the
    first failure of a spec-by-spec loop would, unless ``allow_incomplete``;
    then its raw evolved matrices are returned for diagnostics.
    """
    m = np.asarray(rho, complex)
    one = isinstance(specs, ChannelSpec)
    specs = [specs] if one else list(specs)
    shared = {(s.kind, s.coupling, s.global_mode, s.variant, s.level_order)
              for s in specs}
    if len(shared) != 1:
        raise OutOfRange("evolve takes one or more specs that differ only in "
                         "p1, p2 and p")
    kind, coupling, global_mode, variant, level_order = shared.pop()
    local = [_kraus_set(kind, s.p1, s.p2, PRODUCT, variant, level_order)
             for s in specs]
    coll = ([_kraus_set(kind, s.p, s.p, global_mode, variant, level_order)
             for s in specs] if coupling == GLOBAL else local)
    defects = [max(a[1], b[1]) for a, b in zip(local, coll)]
    tp = [d <= COMPLETENESS_TOL for d in defects]
    n = len(specs) if allow_incomplete or all(tp) else tp.index(False)
    out = np.empty((n,) + m.shape, complex)
    evolved = {}
    for i, s in enumerate(specs[:n]):
        if (s.p1, s.p2) not in evolved:
            evolved[s.p1, s.p2] = apply_unchecked(local[i][0], m)
        out[i] = (apply_unchecked(coll[i][0], evolved[s.p1, s.p2])
                  if coupling == GLOBAL else evolved[s.p1, s.p2])
    if n and all(tp[:n]):
        out = validate_density(out.reshape(-1, 6, 6)).reshape(out.shape)
    elif any(tp[:n]):
        validate_density(out[np.array(tp[:n])].reshape(-1, 6, 6))
    if n < len(specs):
        failure = _INCOMPLETE_GLOBAL if coupling == GLOBAL else _INCOMPLETE_SET
        raise CompletenessViolation(
            failure.format(kind=kind, variant=variant, global_mode=global_mode,
                           defect=defects[n]), defect=defects[n])
    return out[0] if one else out


def multilocal_evolve(
    rho,
    kind: str,
    p1: float,
    p2: float,
    variant: str = CORRECTED,
    level_order: str = DEFAULT_LEVEL_ORDER,
    allow_incomplete: bool = False,
) -> np.ndarray:
    """``evolve`` under independent local environments: qubit at p1,
    qutrit at p2."""
    spec = ChannelSpec(kind, MULTILOCAL, p1, p2, variant=variant,
                       level_order=level_order)
    return evolve(rho, spec, allow_incomplete)


def global_evolve(
    rho,
    kind: str,
    p1: float,
    p2: float,
    p: float,
    global_mode: str = PRODUCT,
    variant: str = CORRECTED,
    level_order: str = DEFAULT_LEVEL_ORDER,
    allow_incomplete: bool = False,
) -> np.ndarray:
    """``evolve`` under local environments followed by a collective one at
    parameter p."""
    spec = ChannelSpec(kind, GLOBAL, p1, p2, p, global_mode, variant, level_order)
    return evolve(rho, spec, allow_incomplete)
