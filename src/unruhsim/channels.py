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
from typing import NamedTuple

import numpy as np

from .errors import CompletenessViolation, DimensionMismatch, OutOfRange, require_member
from .state import require_finite, require_matrices, require_parameter, validate_density

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


def _scalars(dim: int, kind: str, p: float, variant: str) -> tuple:
    """s = (1, x, y): 1 and the two scalars of p in ``kind``'s set on a
    qubit (dim 2) or qutrit (dim 3).  The trit phase flip as printed has
    sqrt(1-2p/3) where completeness needs sqrt(1-p)."""
    if dim == 2 and kind != DEPHASING:
        return 1.0, math.sqrt(1 - p / 2), math.sqrt(p / 2)
    if dim == 2 or kind in (PHASE_FLIP, DEPHASING):
        return 1.0, math.sqrt(1 - p), math.sqrt(p)
    tp = kind == BIT_TRIT_PHASE_FLIP and variant == CORRECTED
    return 1.0, math.sqrt(1 - p) if tp else math.sqrt(1 - 2 * p / 3), math.sqrt(p / 3)


def qubit_channel(kind: str, p: float) -> np.ndarray:
    """Single-qubit Kraus set for the qubit half of ``kind``, as one
    (K, 2, 2) array.

    All four qubit sets satisfy the completeness relation for every p.
    """
    p = require_parameter("p", p)
    index, unit = _table(2, kind, CORRECTED, PRINTED)
    return np.array(_scalars(2, kind, p, CORRECTED))[index] * unit


def qutrit_channel(kind: str, p: float, variant: str = CORRECTED,
                   level_order: str = DEFAULT_LEVEL_ORDER) -> np.ndarray:
    """Single-qutrit Kraus set for the qutrit half of ``kind``, as one
    (K, 3, 3) array.

    ``variant=AS_PRINTED`` keeps the literal circulating matrices even
    where they violate completeness; the default repairs them minimally.
    """
    p = require_parameter("p", p)
    index, unit = _table(3, kind, variant, level_order)
    return np.array(_scalars(3, kind, p, variant))[index] * unit


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


def _paired(a, b, global_mode: str):
    """The qubit and qutrit operands of ``global_mode``'s pairs of the sets a
    and b, as views that broadcast together: every pair for ``product``
    (qubit outer), the first min(Ka, Kb) index by index for ``correlated``;
    the paper's zero operators that pad the shorter set add nothing."""
    require_member("global mode", global_mode, GLOBAL_MODES)
    if global_mode == PRODUCT:
        return a[:, None], b[None, :]
    n = min(len(a), len(b))
    return a[:n], b[:n]


def _tensor_set(a: np.ndarray, b: np.ndarray, global_mode: str):
    """The 6x6 set of a (Ka, 2, 2) qubit set and a (Kb, 3, 3) qutrit set
    (index 3A+a), as one (K, 6, 6) stack of the pairs of ``_paired``."""
    return _kron(*_paired(a, b, global_mode)).reshape(-1, 6, 6)


class _GatherSet(NamedTuple):
    """The S sets of a gather stage, which ``_gather`` applies: the (K, 36)
    flat index into rho of every output entry, shared by the S sets, and
    the (S, K, 36) factors v_i and conj(v_j) of each, all C-contiguous."""

    rho_index: np.ndarray
    v: np.ndarray
    w: np.ndarray


@functools.lru_cache(maxsize=32)  # kind x global mode x variant x level order
def _plan(kind, global_mode, variant, level_order):
    """How ``_stage_sets`` builds every set of one structure, read off the
    unit arrays of ``_table`` paired by ``_tensor_set``: as every scalar is
    positive at 0 < p < 1, they hold the set's nonzeros and phases there.

    Entry (i, c) of operator k is a[A, B] * b[x, y], one entry of its qubit
    operator a times one of its qutrit operator b, for i = 3A + x and
    c = 3B + y.  The read-only maps ``scalar_at`` and ``unit_at``
    (2, K, 6, C) hold the index of each factor's scalar among six (the
    qubit's (1, x, y) of ``_scalars``, then the qutrit's) and its unit
    entry (``_table``).  A matmul structure has C = 6, every column, and
    ``gather`` None.  A gather structure, each of whose operators has at
    most one nonzero per row and per column, each real or purely
    imaginary, has C = 1, row i's one nonzero v_i in column pi_k(i) (0 for
    a zero row), and ``gather`` holds four more read-only arrays:

    * ``rho_index`` (K, 36): for output entry (i, j), the flat index
      pi_k(i)*6 + pi_k(j) of its rho entry;
    * ``left``, ``right`` (K, 36): for output entry (i, j), the flat
      index of v_i and of v_j in the (K, 6) array of the v_i, worked out
      once here, as one ``take`` per stage build beats repeat and tile;
    * ``column`` (K, 6): the flat index there of the nonzero of column j
      of operator k, or of a zero row where column j is zero.
    """
    index, unit = zip(_table(2, kind, CORRECTED, PRINTED),
                      _table(3, kind, variant, level_order))
    ops = _tensor_set(*unit, global_mode)
    nonzero = ops != 0
    exact = not (nonzero.sum(axis=-1).max() > 1 or nonzero.sum(axis=-2).max() > 1
                 or np.any((ops.real != 0) & (ops.imag != 0)))
    col = nonzero.argmax(axis=-1)  # 0 for a zero row, whose v_i is 0
    row = np.arange(6)
    c = col[:, :, None] if exact else row  # the columns of each row's entries
    # Operator k's qubit and qutrit operator, as _tensor_set pairs them.
    on_qubit, on_qutrit = (np.ravel(i)[:, None, None] for i in np.broadcast_arrays(
        *_paired(np.arange(len(unit[0])), np.arange(len(unit[1])), global_mode)))
    # Each factor's flat index among the qubit entries, then the qutrit entries.
    entry = np.stack((on_qubit * 4 + row[:, None] // 3 * 2 + c // 3,
                      unit[0].size + on_qutrit * 9 + row[:, None] % 3 * 3 + c % 3))
    gather = None
    if exact:
        first = np.arange(len(ops))[:, None] * 6  # flat index of each operator's v_0
        # An operator has as many zero columns as zero rows (one nonzero per
        # row and per column), so a zero column always finds a zero row.
        zero_row = (~nonzero.any(axis=-1)).argmax(axis=-1)[:, None]
        holder = np.where(nonzero.any(axis=-2), nonzero.argmax(axis=-2), zero_row)
        gather = ((col[:, :, None] * 6 + col[:, None, :]).reshape(-1, 36),
                  np.repeat(first + row, 6, axis=1), np.tile(first + row, 6),
                  first + holder)
    maps = (np.concatenate((index[0], index[1] + 3), axis=None).take(entry),
            np.concatenate(unit, axis=None).take(entry))
    for a in maps + (gather or ()):
        a.flags.writeable = False
    return maps + (gather,)


def _stage_sets(kind, pairs, global_mode, variant, level_order):
    """The sets of one ``evolve`` stage, ``kind``'s qubit set at qubit_p
    (x) its qutrit set at qutrit_p for each (qubit_p, qutrit_p) of
    ``pairs``, and the list of their completeness defects.  The arrays are
    read-only, as one stage may serve both stages of a call.

    Every stage is built in one pass from ``_plan``'s maps: one (S, 6)
    array of the scalars, each factor its scalar times its unit entry, and
    each entry the qubit factor times the qutrit factor, the multiplies
    that ``qubit_channel``, ``qutrit_channel`` and ``_kron`` make, so every
    entry keeps its bits.  A matmul stage is these entries, one read-only
    (S, K, 6, 6) array of sets, which ``apply_unchecked`` takes whole, with
    their ``completeness_defect``.  A gather stage is one ``_GatherSet`` of
    the v_i; a defect is the largest |s_j - 1| over the columns j, where
    s_j sums, in operator order, |v|^2 of column j's one nonzero in each
    operator: E^dag E is diagonal, and the matmul of
    ``completeness_defect`` only adds exact zeros to it."""
    scalar_at, unit_at, gather = _plan(kind, global_mode, variant, level_order)
    scalars = np.array([(*_scalars(2, kind, float(a), CORRECTED),
                         *_scalars(3, kind, float(b), variant)) for a, b in pairs])
    factors = scalars.take(scalar_at, axis=1) * unit_at  # (S, 2, K, 6, C)
    entries = factors[:, 0] * factors[:, 1]  # (S, K, 6, C)
    if gather is None:
        entries.flags.writeable = False
        return entries, [completeness_defect(ops) for ops in entries]
    rho_index, left, right, column = gather
    v = entries.reshape(len(pairs), -1)  # (S, K*6)
    # |v|^2 as BLAS rounds conj(v) * v: one part of v is zero.
    sums = (np.abs(v) ** 2).take(column, axis=1).sum(axis=1)
    stage = _GatherSet(rho_index, v.take(left, axis=1), v.conj().take(right, axis=1))
    stage.v.flags.writeable = stage.w.flags.writeable = False
    return stage, np.abs(sums - 1.0).max(axis=1).tolist()


def apply_unchecked(sets, x: np.ndarray) -> np.ndarray:
    """One matmul stage: sum E rho E^dag over the operators of each of the
    S sets of the (S, K, 6, 6) array ``sets``, applied to its flat matrices
    of x, (S, N, 36), or all to the (1, N, 36) of x, in one call, without
    any revalidation.  Returns the (S, N, 36) results.  It is the kernel
    ``_stage`` takes for a matmul stage, and the tests' oracle for
    ``_gather``.

    E @ rho is one left product per stage, each set's K operators stacked
    as the rows of one (K*6, 6) left factor: one (K*6, 6) @ (6, 6) gemm per
    matrix.  Then E^dag one batched (S, N*6, 6) @ (S, 6, 6) product per
    operator, added from +0 in operator order.  BLAS forms the rows of A
    apart, so this keeps the per-matrix bits; stacking columns of B,
    (6, 6) @ (6, N*6), changes 600 of figure 3's 1,616.
    """
    e = np.asarray(sets)
    s, k = e.shape[:2]
    m = x.reshape(len(x), -1, 6, 6)
    left = np.matmul(e.reshape(s, 1, k * 6, 6), m).reshape(s, -1, k, 6, 6)
    out = np.zeros((s, left.shape[1] * 6, 6), complex)
    for i in range(k):
        out += left[:, :, i].reshape(s, -1, 6) @ e[:, i].conj().transpose(0, 2, 1)
    return out.reshape(s, -1, 36)


def _gather(sets: _GatherSet, x: np.ndarray):
    """One stage: the S gather sets of ``sets``, each applied to its flat
    matrices of x, (S, N, 36), or all to the (1, N, 36) of x, in one call.
    Returns the (S, N, 36) results.

    Entry (i, j) of E rho E^dag is (rho[pi(i), pi(j)] * v_i) * conj(v_j).
    Only the columns c of the reach are formed, where some rho_index[k, c]
    lies in the support of x, the entries nonzero in some matrix of x (nan
    and inf included, +0 and -0 not), and the rest stay the zeros they are
    scattered into: on sparse stacks that forms fewer columns (figure 3: 6
    or 18).  Forming all 36 made figure 3 43 % and the verify reports 21 %
    slower (BENCH_25.json).  When x holds one matrix, for which the support
    pass costs more than it saves, every column is formed.  On one
    (S, N, K, C) temporary: a gather, the two scalings in place and the sum
    over K in operator order, which numpy starts from +0 as the matmul
    kernel does, so neither ends on -0.  Only where x's one matrix set
    broadcasts up to S > 1 sets does the first scaling make the temporary,
    from a gather of (1, N, K, C).  As v and w are finite, an entry outside
    the reach is a sum of signed zeros, so +0, as the zeros scattered into.
    The restricted arrays are C-contiguous and keep two columns or more, so
    numpy adds the K terms one by one, as over all 36 columns; down a lone
    column it would sum them pairwise.  On finite input this gives the bits
    of ``apply_unchecked``: each matmul entry is the one product plus exact
    zeros, the complex products round alike as v_i is real or purely
    imaginary, and both add the operators' terms in order.
    """
    rho_index, v, w = sets
    cols = None
    if x.size != 36:
        cols = np.flatnonzero(x.reshape(-1, 36).any(axis=0)[rho_index].any(axis=0))
        if len(cols) == 1:
            cols = np.union1d(cols, (0, 1))
        rho_index, v, w = (a.take(cols, axis=-1) for a in (rho_index, v, w))
    t = x.take(rho_index, axis=-1)  # (S or 1, N, K, C)
    if len(t) == len(v):
        t *= v[:, None]
    else:  # one matrix set of x broadcasts up to the S sets
        t = t * v[:, None]
    t *= w[:, None]
    kept = t.sum(axis=-2)
    if cols is None:
        return kept
    out = np.zeros(kept.shape[:-1] + (36,), complex)
    out[..., cols] = kept
    return out


def _stage(sets, x: np.ndarray):
    """The one place a kernel is chosen: ``_gather`` for a gather stage,
    ``apply_unchecked`` for a matmul stage, each called once."""
    return (_gather if isinstance(sets, _GatherSet) else apply_unchecked)(sets, x)


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
    m = np.asarray(rho, complex)
    out = apply_unchecked((ops,), m.reshape(1, -1, 36))
    return validate_density(out.reshape(m.shape))


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
    operators index by index, without the paper's zero operators that pad
    the shorter set; it generally violates completeness, which callers
    must check.  The operators are read-only.
    """
    ops = _tensor_set(qubit_channel(kind, p),
                      qutrit_channel(kind, p, variant, level_order), global_mode)
    ops.flags.writeable = False
    return tuple(ops)


def _parameters(spec: ChannelSpec, params):
    """The (p1, p2) pairs and the p values of ``spec``, or of its n >= 1
    (p1, p2, p) rows ``params``, checked as n specs would be: the first
    value out of range in row order raises its spec's text."""
    if params is None:
        return [(spec.p1, spec.p2)], [spec.p]
    rows = np.asarray(params, float)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise DimensionMismatch(f"params must have shape (n, 3), got {rows.shape}")
    if not len(rows):
        raise OutOfRange("evolve takes one or more parameter rows")
    flat = rows.ravel().tolist()
    for i, value in enumerate(flat):
        if not 0.0 <= value <= 1.0:  # nan too
            require_parameter(("p1", "p2", "p")[i % 3], value)
    return zip(flat[::3], flat[1::3]), flat[2::3]


def evolve(rho, spec, params=None, allow_incomplete: bool = False) -> np.ndarray:
    """Evolve a 6x6 state, or a nonempty (..., 6, 6) stack of them, through
    ``spec`` or, with a leading row axis, through the spec at each (p1, p2, p)
    row of the (n, 3) array ``params``: the one evaluation path.  Any other
    shape raises DimensionMismatch, and a nan or inf ValueError, before any stage.

    The stack goes through each distinct local set at (p1, p2) once, in order
    of first appearance; the local results are then repeated to one per row,
    where rows share one, and for global coupling each row's result goes
    through its own collective set at (p, p).  Each stage is built whole,
    with its sets' completeness defects, by one ``_stage_sets`` call, unless
    in product mode the collective stage equals the local one (distinct rows,
    p1 = p2 = p), which then serves both; each is applied by one ``_stage``
    call, one call of its kernel for the whole stage.  Every matrix of a
    trace-preserving row is validated; the result is read-only exactly when
    every row is.  Unless ``allow_incomplete`` (raw matrices, for
    diagnostics), the first row n that is not raises CompletenessViolation,
    after a nested ``evolve`` of ``params[:n]`` (spies and tracers see it)
    raises any failure before it.
    """
    m = np.asarray(rho, complex)
    require_matrices(m)
    require_finite(m)
    kind, variant, level_order = spec.kind, spec.variant, spec.level_order
    pairs, ps = _parameters(spec, params)
    distinct = {}  # the local stage's row of each distinct (p1, p2)
    rows = [distinct.setdefault(pair, len(distinct)) for pair in pairs]
    local_key = [list(distinct), PRODUCT]  # a stage's pairs and global mode
    local, local_defects = _stage_sets(kind, *local_key, variant, level_order)
    defects = [local_defects[i] for i in rows]
    if spec.coupling == GLOBAL:
        key = [list(zip(ps, ps)), spec.global_mode]
        coll, coll_defects = ((local, local_defects) if key == local_key
                              else _stage_sets(kind, *key, variant, level_order))
        defects = list(map(max, defects, coll_defects))
    tp = [d <= COMPLETENESS_TOL for d in defects]
    if not (allow_incomplete or all(tp)):
        n = tp.index(False)
        if n:
            evolve(m, spec, params[:n])
        failure = _INCOMPLETE_GLOBAL if spec.coupling == GLOBAL else _INCOMPLETE_SET
        raise CompletenessViolation(
            failure.format(kind=kind, variant=variant, global_mode=spec.global_mode,
                           defect=defects[n]), defect=defects[n])
    y = _stage(local, m.reshape(1, -1, 36))
    if len(y) < len(rows):
        y = y[rows]
    if spec.coupling == GLOBAL:
        y = _stage(coll, y)
    out = y.reshape((len(rows),) + m.shape)
    if all(tp):
        out = validate_density(out)
    elif any(tp):
        validate_density(out[np.array(tp)])
    return out[0] if params is None else out


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
    return evolve(rho, spec, allow_incomplete=allow_incomplete)


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
    return evolve(rho, spec, allow_incomplete=allow_incomplete)
