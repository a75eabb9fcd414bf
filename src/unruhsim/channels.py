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

from .errors import CompletenessViolation, DimensionMismatch, OutOfRange, require_member
from .state import require_parameter, validate_density

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
LEVEL_ORDERS = (PRINTED, REVERSED)
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
        require_member("channel kind", self.kind, KINDS)
        require_member("coupling", self.coupling, COUPLINGS)
        require_member("global mode", self.global_mode, GLOBAL_MODES)
        require_member("variant", self.variant, VARIANTS)
        require_member("level order", self.level_order, LEVEL_ORDERS)
        for name in ("p1", "p2", "p"):
            require_parameter(name, getattr(self, name))


def _printed(dim: int, kind: str, variant: str) -> list:
    """``kind``'s set on a qubit (dim 2) or qutrit (dim 3) as printed, level
    0 first: one (unit, index) per operator, whose entry (i, j) is
    s[index[i, j]] * unit[i, j] for the scalars s of p (``_scalars``); an
    int index holds for the whole operator."""
    if dim == 2:
        second = {PHASE_FLIP: np.diag([1.0, -1.0]), DEPHASING: np.diag([0.0, 1.0]),
                  BIT_TRIT_FLIP: [[0, 1], [1, 0]],
                  BIT_TRIT_PHASE_FLIP: [[0, -1j], [1j, 0]]}[kind]
        return [(_I2, np.diag([0, 1]) if kind == DEPHASING else 1), (second, 2)]
    if kind == PHASE_FLIP:
        return [(_I3, np.diag([0, 1, 1])), ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], 2),
                ([[0, 0, 1], [0, 0, 0], [0, 0, 0]], 2)]
    if kind == DEPHASING:
        stray = variant == AS_PRINTED  # the circulating form's unit (0,0) entries
        return [(_I3, np.diag([0, 1, 1])), (np.diag([stray, 1, 0]), np.diag([0, 2, 0])),
                (np.diag([stray, 0, 1]), np.diag([0, 0, 2]))]
    if kind == BIT_TRIT_FLIP:
        return [(_I3, 1), ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 2),
                ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2)]
    om, omc = _OMEGA, _OMEGA.conjugate()
    return [(_I3, 1), ([[0, 0, om], [1, 0, 0], [0, omc, 0]], 2),
            ([[0, omc, 0], [0, 0, om], [1, 0, 0]], 2),
            ([[0, om, 0], [0, 0, omc], [1, 0, 0]], 2)]


@functools.lru_cache(maxsize=None)  # 4 qubit and 16 qutrit structures
def _table(dim: int, kind: str, variant: str, level_order: str):
    """The read-only (K, dim, dim) index and unit arrays of a set, built on
    first use, with the reversed level order (level 2 first) folded in; an
    unknown structure raises on every call, as the cache keeps no exception."""
    require_member("channel kind", kind, KINDS)
    require_member("variant", variant, VARIANTS)
    require_member("level order", level_order, LEVEL_ORDERS)
    ops = _printed(dim, kind, variant)
    index = np.stack([np.broadcast_to(i, (dim, dim)) for _, i in ops]).astype(int)
    unit = np.array([u for u, _ in ops], dtype=complex)
    if level_order == REVERSED:
        index, unit = index[:, ::-1, ::-1].copy(), unit[:, ::-1, ::-1].copy()
    index.flags.writeable = unit.flags.writeable = False
    return index, unit


def _scalars(dim: int, kind: str, p: float, variant: str) -> np.ndarray:
    """s = (1, x, y): 1 and the two scalars of p in ``kind``'s set on a
    qubit (dim 2) or qutrit (dim 3).  The trit phase flip as printed has
    sqrt(1-2p/3) where completeness needs sqrt(1-p)."""
    if dim == 2 and kind != DEPHASING:
        return np.array((1.0, math.sqrt(1 - p / 2), math.sqrt(p / 2)))
    if dim == 2 or kind in (PHASE_FLIP, DEPHASING):
        return np.array((1.0, math.sqrt(1 - p), math.sqrt(p)))
    tp = kind == BIT_TRIT_PHASE_FLIP and variant == CORRECTED
    return np.array((1.0, math.sqrt(1 - p) if tp else math.sqrt(1 - 2 * p / 3),
                     math.sqrt(p / 3)))


def qubit_channel(kind: str, p: float) -> np.ndarray:
    """Single-qubit Kraus set for the qubit half of ``kind``, as one
    (K, 2, 2) array.

    All four qubit sets satisfy the completeness relation for every p.
    """
    p = require_parameter("p", p)
    index, unit = _table(2, kind, CORRECTED, PRINTED)
    return _scalars(2, kind, p, CORRECTED)[index] * unit


def qutrit_channel(kind: str, p: float, variant: str = CORRECTED,
                   level_order: str = DEFAULT_LEVEL_ORDER) -> np.ndarray:
    """Single-qutrit Kraus set for the qutrit half of ``kind``, as one
    (K, 3, 3) array.

    ``variant=AS_PRINTED`` keeps the literal circulating matrices even
    where they violate completeness; the default repairs them minimally.
    """
    p = require_parameter("p", p)
    index, unit = _table(3, kind, variant, level_order)
    return _scalars(3, kind, p, variant)[index] * unit


def completeness_defect(ops) -> float:
    """Max-norm of (sum E^dag E - I)."""
    e = np.asarray(ops)
    acc = (e.conj().transpose(0, 2, 1) @ e).sum(axis=0)
    acc.flat[::len(acc) + 1] -= 1.0
    return float(np.abs(acc).max())


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


# Nothing in src/ calls this; kept only for perfbench/spans.py TARGETS (ROADMAP 1-2).
def lift_qubit(ops) -> tuple[np.ndarray, ...]:
    """Tensor each qubit operator with the qutrit identity (index 3A+a)."""
    _check_dim(ops, 2, "lift_qubit")
    return tuple(_kron(e, _I3) for e in ops)


# Nothing in src/ calls this; kept only for perfbench/spans.py TARGETS (ROADMAP 1-2).
def lift_qutrit(ops) -> tuple[np.ndarray, ...]:
    """Tensor each qutrit operator with the qubit identity (index 3A+a)."""
    _check_dim(ops, 3, "lift_qutrit")
    return tuple(_kron(_I2, e) for e in ops)


def _tensor_set(a: np.ndarray, b: np.ndarray, global_mode: str = PRODUCT):
    """The 6x6 set of a (Ka, 2, 2) qubit set and a (Kb, 3, 3) qutrit set
    (index 3A+a), as one (K, 6, 6) stack.

    ``product`` tensors every qubit operator with every qutrit operator
    (qubit outer, qutrit inner); ``correlated`` pairs them index by index,
    padding the shorter set with zeros.
    """
    require_member("global mode", global_mode, GLOBAL_MODES)
    if global_mode == PRODUCT:
        return _kron(a[:, None], b[None, :]).reshape(-1, 6, 6)
    n = max(len(a), len(b))
    pad = lambda e: np.concatenate([e, np.zeros((n - len(e),) + e.shape[1:], complex)])
    return _kron(pad(a), pad(b))


class _CachedSet(tuple):
    """The read-only operators of a cached set.  ``gather`` is the plan of
    ``apply_unchecked``'s gather kernel (the (K, 36) flat index into rho of
    every output entry and the (K, 36) factors v_i and conj(v_j) of each),
    or None where the set needs the matmul."""

    gather = None


@functools.lru_cache(maxsize=32)  # kind x global mode x variant x level order
def _gather_pattern(kind, global_mode, variant, level_order):
    """Where the nonzeros of every set of one structure lie, or None when
    the gather would not be exact: an operator with two nonzeros in a row
    or column, or a nonzero that is neither real nor purely imaginary.

    Operator k holds the one nonzero of its row i, v_i, in column
    pi_k(i).  For output entry (i, j) of each operator, the pattern holds
    the flat index pi_k(i)*6 + pi_k(j) of its rho entry and the flat
    indices of v_i and v_j in the (K, 6, 6) stack, each as a (K, 36)
    array.  It is read off the set at p = 1/2, where every entry that is
    nonzero at some p is nonzero.
    """
    ops = _tensor_set(qubit_channel(kind, 0.5),
                      qutrit_channel(kind, 0.5, variant, level_order),
                      global_mode)
    nonzero = ops != 0
    if (nonzero.sum(axis=-1).max() > 1 or nonzero.sum(axis=-2).max() > 1
            or np.any((ops.real != 0) & (ops.imag != 0))):
        return None
    col = nonzero.argmax(axis=-1)  # 0 for a zero row, whose v_i is 0
    k = len(ops)
    value = np.arange(k)[:, None] * 36 + np.arange(6) * 6 + col
    pattern = ((col[:, :, None] * 6 + col[:, None, :]).reshape(k, 36),
               np.repeat(value, 6, axis=1), np.tile(value, 6))
    for a in pattern:
        a.flags.writeable = False
    return pattern


@functools.lru_cache(maxsize=_SET_CACHE_SIZE)
def _kraus_set(kind, qubit_p, qutrit_p, global_mode, variant, level_order):
    """The read-only 6x6 set of ``kind``'s qubit set at ``qubit_p`` and
    qutrit set at ``qutrit_p``, with its gather plan where it has one, and
    its completeness defect, built once per key while it stays among the
    most recently used."""
    ops = _tensor_set(qubit_channel(kind, qubit_p),
                      qutrit_channel(kind, qutrit_p, variant, level_order),
                      global_mode)
    ops.flags.writeable = False
    cached = _CachedSet(ops)
    pattern = _gather_pattern(kind, global_mode, variant, level_order)
    if pattern is not None:
        rho_index, left, right = pattern
        flat = ops.reshape(-1)
        v, w = flat[left], flat[right]
        np.conjugate(w, out=w)
        v.flags.writeable = w.flags.writeable = False
        cached.gather = (rho_index, v, w)
    return cached, completeness_defect(ops)


def apply_unchecked(ops, matrix: np.ndarray) -> np.ndarray:
    """sum E rho E^dag without any revalidation of the result.

    ``matrix`` may be one 6x6 matrix or a stack (..., 6, 6); each operator
    is applied to the whole stack at once.  A set from the ``_kraus_set``
    cache with a gather plan (phase flip, dephasing, bit-trit flip) takes
    the gather kernel: entry (i, j) of E rho E^dag is
    (rho[pi(i), pi(j)] * v_i) * conj(v_j), for all K operators in one
    vectorised step.  Any other set, a plain sequence of operators
    included, takes E @ rho @ E^dag per operator: E @ rho over the stack
    into one buffer, then E^dag on the right of all its rows in one
    (N*6, 6) @ (6, 6) product (the oracle tests pin it, bit for bit, to the
    matrix-by-matrix product; a batched left factor does not match).  On
    finite input both kernels give the same bits: each matmul entry is that
    one product plus exact zeros, the complex products round alike because
    v_i is real or purely imaginary, and both add the operators' terms in
    order.
    """
    m = np.asarray(matrix, dtype=complex)
    gather = getattr(ops, "gather", None)
    if gather is not None:
        return _gather_apply(gather, m)
    # C order whatever m's layout, so the row views below are views, not copies.
    out, left = np.zeros(m.shape, complex), np.empty(m.shape, complex)
    rows, left_rows = out.reshape(-1, m.shape[-1]), left.reshape(-1, m.shape[-1])
    for e in ops:
        np.matmul(e, m, out=left)
        rows += left_rows @ e.conj().T
    return out


def _gather_apply(gather, m: np.ndarray) -> np.ndarray:
    rho_index, left, right = gather
    t = m.reshape(m.shape[:-2] + (36,))[..., rho_index]  # (..., K, 36)
    t *= left
    t *= right
    out = t.sum(axis=-2)
    # -0 to +0: the matmul loop sums from +0, so never ends on -0; numpy's
    # sum need not start from +0 (numpy 2.4 does; this is then a no-op).
    out += 0.0
    return out.reshape(m.shape)


_INCOMPLETE_SET = (
    "Kraus set {kind!r} ({variant}) has completeness defect {defect:.3e}; "
    "evolution would not preserve the trace"
)
_INCOMPLETE_GLOBAL = (
    "{kind!r} global evolution in {global_mode!r} mode uses a "
    "Kraus set with completeness defect {defect:.3e}"
)


# Nothing in src/ calls this; kept only for perfbench/spans.py TARGETS (ROADMAP 1-2).
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


# Nothing in src/ calls this; kept only for perfbench/spans.py TARGETS (ROADMAP 1-2).
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
    spec is validated; the result is read-only exactly when every spec is
    trace preserving, so every matrix in it was validated.  A spec that is
    not raises CompletenessViolation, as the first failure of a
    spec-by-spec loop would, unless ``allow_incomplete``; then its raw
    evolved matrices are returned for diagnostics.
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


# Nothing in src/ calls this; kept only for perfbench/spans.py TARGETS (ROADMAP 1-2).
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


# Nothing in src/ calls this; kept only for perfbench/spans.py TARGETS (ROADMAP 1-2).
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
