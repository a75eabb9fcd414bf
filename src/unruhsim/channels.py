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

import math
from dataclasses import dataclass, replace

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

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3, dtype=complex)
# Reversal permutation for the 3-level basis: level 2 first.
_REV3 = np.fliplr(np.eye(3)).astype(complex)
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

    def with_params(self, p1=None, p2=None, p=None) -> "ChannelSpec":
        return replace(
            self,
            p1=self.p1 if p1 is None else p1,
            p2=self.p2 if p2 is None else p2,
            p=self.p if p is None else p,
        )


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
    if level_order == REVERSED:
        ops = [_REV3 @ e @ _REV3 for e in ops]
    return tuple(ops)


def completeness_defect(ops) -> float:
    """Max-norm of (sum E^dag E - I)."""
    dim = ops[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for e in ops:
        acc += e.conj().T @ e
    return float(np.max(np.abs(acc - np.eye(dim))))


def _check_dim(ops, dim: int, name: str) -> None:
    if ops[0].shape != (dim, dim):
        raise DimensionMismatch(f"{name} expects dim {dim}, got {ops[0].shape[0]}")


def lift_qubit(ops) -> tuple[np.ndarray, ...]:
    """Tensor each qubit operator with the qutrit identity (index 3A+a)."""
    _check_dim(ops, 2, "lift_qubit")
    return tuple(np.kron(e, _I3) for e in ops)


def lift_qutrit(ops) -> tuple[np.ndarray, ...]:
    """Tensor each qutrit operator with the qubit identity (index 3A+a)."""
    _check_dim(ops, 3, "lift_qutrit")
    return tuple(np.kron(_I2, e) for e in ops)


def _tensor_set(qubit_ops, qutrit_ops, global_mode: str = PRODUCT):
    """The 6x6 set of a qubit set and a qutrit set (index 3A+a).

    ``product`` tensors every qubit operator with every qutrit operator
    (qubit outer, qutrit inner); ``correlated`` pairs them index by index,
    padding the shorter set with zeros.
    """
    if global_mode == PRODUCT:
        return tuple(np.kron(a, b) for a in qubit_ops for b in qutrit_ops)
    if global_mode != CORRELATED:
        raise OutOfRange(f"unknown global mode {global_mode!r}")
    n = max(len(qubit_ops), len(qutrit_ops))
    pad = lambda ops, d: [*ops] + [np.zeros((d, d), dtype=complex)] * (n - len(ops))
    return tuple(np.kron(a, b)
                 for a, b in zip(pad(qubit_ops, 2), pad(qutrit_ops, 3)))


def apply_unchecked(ops, matrix: np.ndarray) -> np.ndarray:
    """sum E rho E^dag without any revalidation of the result.

    ``matrix`` may be one 6x6 matrix or an (N, 6, 6) stack; each operator
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


def _push(matrices: np.ndarray, sets, allow_incomplete: bool, failure: str, **fields):
    """Evolve a 6x6 matrix, or an (N, 6, 6) stack, through each Kraus set
    in turn.

    When every set is trace preserving the result goes through
    ``validate_density``.  Otherwise the raw evolved array is returned if
    ``allow_incomplete``; if not, CompletenessViolation is raised with the
    worst defect (``failure`` formatted with ``fields`` and the defect).
    """
    defect = max(completeness_defect(ops) for ops in sets)
    if defect > COMPLETENESS_TOL and not allow_incomplete:
        raise CompletenessViolation(
            failure.format(defect=defect, **fields), defect=defect
        )
    out = matrices
    for ops in sets:
        out = apply_unchecked(ops, out)
    return validate_density(out) if defect <= COMPLETENESS_TOL else out


def apply(ops, rho) -> np.ndarray:
    """Evolve a state through a 6-dimensional Kraus set and revalidate.

    Raises CompletenessViolation (with the measured defect) when the set
    is not trace preserving; incomplete sets are never silently
    renormalized.
    """
    _check_dim(ops, 6, "apply")
    return _push(np.asarray(rho, complex), (ops,), False,
                 "Kraus set has completeness defect {defect:.3e}; "
                 "evolution would not preserve the trace")


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
    generally violates completeness, which callers must check.
    """
    return _tensor_set(qubit_channel(kind, p),
                       qutrit_channel(kind, p, variant, level_order), global_mode)


def evolve(rho, spec: ChannelSpec, allow_incomplete: bool = False) -> np.ndarray:
    """Evolve a 6x6 state, or an (N, 6, 6) stack of them, through a
    ChannelSpec: the one evaluation path.

    The spec's Kraus sets are built once and the whole stack is pushed
    through the local set at (p1, p2) and, for global coupling, the
    collective set at p.  The result has the shape of ``rho`` and is
    validated and read-only, unless ``allow_incomplete`` let a
    non-trace-preserving set through; then the raw evolved array is
    returned for diagnostics.
    """
    m = np.asarray(rho, complex)
    local = _tensor_set(qubit_channel(spec.kind, spec.p1),
                        qutrit_channel(spec.kind, spec.p2, spec.variant,
                                       spec.level_order))
    if spec.coupling == MULTILOCAL:
        return _push(m, (local,), allow_incomplete, _INCOMPLETE_SET,
                     kind=spec.kind, variant=spec.variant)
    coll = collective_set(spec.kind, spec.p, spec.global_mode, spec.variant,
                          spec.level_order)
    return _push(m, (local, coll), allow_incomplete, _INCOMPLETE_GLOBAL,
                 kind=spec.kind, global_mode=spec.global_mode)


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
