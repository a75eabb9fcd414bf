"""Parameter sweeps, sudden-death thresholds and figure datasets.

A sweep evaluates to one ``SweepResult``: its linked spec at each p (rows,
outer) and its r axis (columns, inner), with one negativity and one minimum
PT eigenvalue array over both.  Only the writers here lay those out as rows.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import channels
from .channels import ChannelSpec, GLOBAL, MULTILOCAL
from .entanglement import pt_spectra
from .errors import DimensionMismatch, IoFailure, OutOfRange
from .state import R_MAX, unruh_state

AXIS_P = "p"
AXIS_R = "r"
AXIS_GRID = "grid"
AXES = (AXIS_P, AXIS_R, AXIS_GRID)

# A state counts as disentangled when its negativity falls to this level;
# this mirrors the max{0, .} clamp in the negativity itself.
ESD_NEGATIVITY_FLOOR = 1e-12

CSV_HEADER = "channel,coupling,global_mode,p1,p2,p,r,negativity,min_pt_eigenvalue"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a channel template plus the axis and grids to walk.

    The swept p value is applied to p1, p2 and (for global coupling) the
    collective p simultaneously; the template's own parameter values are
    used for whatever is not swept.
    """

    channel: ChannelSpec
    axis: str = AXIS_P
    r: float = 0.0  # fixed acceleration when the r axis is not swept
    steps: int = 101  # points per swept axis: p over [0, 1], r over [0, pi/4]

    def __post_init__(self):
        if self.axis not in AXES:
            raise OutOfRange(f"unknown sweep axis {self.axis!r}")
        if self.steps < 1:
            raise OutOfRange("grids must be nonempty")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """One evaluated sweep: row i of each array is ``specs[i]`` over ``r``."""

    specs: tuple[ChannelSpec, ...]
    r: np.ndarray
    negativity: np.ndarray  # (len(specs), len(r))
    min_pt_eigenvalue: np.ndarray  # (len(specs), len(r))

    def __post_init__(self):
        # The writers zip specs with array rows and count rows by shape.
        shape = (len(self.specs), len(self.r))
        if self.negativity.shape != shape or self.min_pt_eigenvalue.shape != shape:
            raise DimensionMismatch(f"sweep result arrays must have shape {shape}")


# Matrices one ``channels.evolve`` call takes at most.  Larger stacks made
# fresh processes page-fault on their temporaries (10,000-52,000 extra minor
# faults in the six verify reports at 132-512 matrices).  Re-measured with
# the gather kernel (BENCH_11.json, three runs each): against 128, the six
# verify reports took 11 % longer at 256, 14 % at 512 and 11 % at 64, and
# figure 3, one spec per call below 202 matrices, moved by under 3 % at 256
# and 512, less than its run-to-run spread.
_CHUNK_MATRICES = 128


def _result_arrays(rows: int, columns: int):
    """Empty minimum-PT-eigenvalue and negativity arrays of a grid, each
    of shape (rows, columns); OutOfRange when they do not fit."""
    try:
        min_eig = np.empty((rows, columns))
        return min_eig, np.empty_like(min_eig)
    except MemoryError as exc:  # the grid fits, its result arrays do not
        raise OutOfRange(f"a grid of {rows * columns} points is too large") from exc


def evaluate(specs, r_values, allow_incomplete: bool = False, out=None):
    """Minimum PT eigenvalues and negativities, each of shape
    (len(specs), len(r_values)), of every spec over one r-axis, written
    into ``out`` (from ``_result_arrays``) when given.

    The specs must differ only in p1, p2 and p.  The r-axis states are
    built once; each chunk of specs evolves the whole stack in one
    ``channels.evolve`` call, which shares the Kraus sets the specs have
    in common, and takes its PT spectra in one eigensolver call.  Only a
    chunk with raw rows (``allow_incomplete``) has its partial transposes
    checked for hermiticity; ``evolve`` has validated the rows of every
    other chunk.
    """
    if len(r_values) == 0:
        raise OutOfRange("the r axis is empty")
    states = np.stack([unruh_state(float(r)) for r in r_values])
    min_eig, neg = _result_arrays(len(specs), len(states)) if out is None else out
    step = max(1, _CHUNK_MATRICES // len(states))
    for i in range(0, len(specs), step):
        rows = channels.evolve(states, specs[i:i + step], allow_incomplete)
        # evolve returns a read-only array exactly when it validated every row.
        eig, neg[i:i + step] = pt_spectra(rows, validated=not rows.flags.writeable)
        min_eig[i:i + step] = eig[..., 0]
    return min_eig, neg


def _linked(channel: ChannelSpec, p: float) -> ChannelSpec:
    """The channel with p applied to p1, p2 and, for global coupling, the
    collective p."""
    return replace(channel, p1=p, p2=p,
                   p=p if channel.coupling == GLOBAL else channel.p)


def _axis(stop: float, count: int) -> np.ndarray:
    """``count`` evenly spaced points over [0, stop]."""
    try:
        return np.linspace(0.0, stop, count)
    except (ValueError, MemoryError) as exc:  # numpy cannot allocate it
        raise OutOfRange(f"a grid of {count} points is too large") from exc


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid: one row per swept p, one column per r."""
    specs = ((spec.channel,) if spec.axis == AXIS_R else
             tuple(_linked(spec.channel, p) for p in _axis(1.0, spec.steps).tolist()))
    r = (np.array([spec.r], float) if spec.axis == AXIS_P
         else _axis(R_MAX, spec.steps))
    min_eig, neg = evaluate(specs, r)
    return SweepResult(specs, r, neg, min_eig)


def _linked_negativity(channel: ChannelSpec, p: float, r: float) -> float:
    return float(evaluate([_linked(channel, p)], [r])[1][0, 0])


def esd_threshold(channel: ChannelSpec, r: float, p_tol: float = 1e-6):
    """Smallest linked p at which negativity falls to the disentanglement
    floor, or None when the state stays entangled across [0, 1).

    Coarse scan at step 0.01, then bisection of the first crossing down to
    ``p_tol``, or until the bracket is one ulp wide.  The scan takes the
    first crossing, so a single threshold is well defined even if
    negativity were not monotone.
    """
    if p_tol <= 0:
        raise OutOfRange("p_tol must be positive")
    if not math.isfinite(p_tol):  # nan passes the check above
        raise OutOfRange(f"p_tol must be finite, got {p_tol!r}")
    f = lambda p: _linked_negativity(channel, p, r)
    k = next((k for k in range(100) if f(k / 100.0) <= ESD_NEGATIVITY_FLOOR), None)
    if k is None:
        return None
    if k == 0:
        return 0.0
    lo, hi = (k - 1) / 100.0, k / 100.0
    while hi - lo > p_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no float lies strictly inside the bracket
            break
        if f(mid) <= ESD_NEGATIVITY_FLOOR:
            hi = mid
        else:
            lo = mid
    return hi


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _atomic_write(destination: str, chunks) -> None:
    """Write the text chunks, in order, to a temp file (open()'s mode) beside
    ``destination`` and move it into place with one ``os.replace``: a reader
    sees the old file or the whole new one, and a failure, while writing or
    while a chunk is made, leaves no temp file.  OSError becomes IoFailure."""
    tmp_path = os.path.join(os.path.dirname(destination) or ".",
                            f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp_path, destination)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {destination!r}: {exc}") from exc


def _fixed(spec: ChannelSpec) -> list[str]:
    """The fixed fields of a spec's rows, formatted: kind, coupling, global
    mode, p1, p2 and p; empty mode and p = 0 under multilocal coupling."""
    global_ = spec.coupling == GLOBAL
    return [spec.kind, spec.coupling, spec.global_mode if global_ else "",
            _fmt(spec.p1), _fmt(spec.p2), _fmt(spec.p if global_ else 0.0)]


def _rows(res: SweepResult, sep: str, first: int):
    """A result's rows, outer spec, inner r, as one text chunk per spec row
    whose lines each end in LF: the fixed fields from index ``first`` on,
    formatted once per spec, r once per result, then the two results by
    one template ('%.12g' % x is _fmt(x) for every float)."""
    r_text = [_fmt(r) for r in res.r.tolist()]
    tail = f"{sep}%.12g{sep}%.12g\n"
    for spec, negs, eigs in zip(res.specs, res.negativity, res.min_pt_eigenvalue):
        head = sep.join(_fixed(spec)[first:]) + sep
        yield "".join([head + r + tail % (n, e)
                       for r, n, e in zip(r_text, negs.tolist(), eigs.tolist())])


def _nonempty(results: list[SweepResult]) -> list[SweepResult]:
    if not results or any(res.negativity.size == 0 for res in results):
        raise OutOfRange("refusing to write an empty sweep")
    return results


def write_csv(results: list[SweepResult], destination: str) -> int:
    """Write results as CSV (12 significant digits, LF endings, atomic),
    one spec row at a time.

    Returns the number of data rows written.
    """
    results = _nonempty(results)
    _atomic_write(destination, itertools.chain(
        [CSV_HEADER + "\n"], *(_rows(res, ",", 0) for res in results)))
    return sum(res.negativity.size for res in results)


def write_plot_data(results: list[SweepResult], destination: str) -> int:
    """Write results as blank-line-separated blocks, one per result in
    input order, labelled with its kind, coupling and global mode; a
    result is one curve or, for a p-and-r grid, one surface.  Written one
    spec row at a time.

    Returns the block count.
    """
    results = _nonempty(results)

    def blocks():
        for i, res in enumerate(results):
            label = "# " + " ".join(filter(None, _fixed(res.specs[0])[:3]))
            yield ("\n" if i else "") + label + "\n"
            yield from _rows(res, " ", 3)

    _atomic_write(destination, blocks())
    return len(results)


# Figure-style presets: four-channel overlays on shared grids.
_FIGURE_PARAMS = {
    "1a": (MULTILOCAL, AXIS_P, math.pi / 6, 0.0),
    "1b": (MULTILOCAL, AXIS_P, math.pi / 4, 0.0),
    "1c": (MULTILOCAL, AXIS_R, 0.0, 0.3),
    "1d": (MULTILOCAL, AXIS_R, 0.0, 0.7),
    "2a": (GLOBAL, AXIS_P, math.pi / 6, 0.0),
    "2b": (GLOBAL, AXIS_P, math.pi / 4, 0.0),
    "2c": (GLOBAL, AXIS_R, 0.0, 0.3),
    "2d": (GLOBAL, AXIS_R, 0.0, 0.7),
    "3": (GLOBAL, AXIS_GRID, 0.0, 0.0),
}
FIGURES = tuple(_FIGURE_PARAMS)


def figure_sweeps(figure: str) -> list[SweepSpec]:
    """SweepSpecs (one per channel) reproducing a preset figure dataset."""
    if figure not in FIGURES:
        raise OutOfRange(f"unknown figure {figure!r}")
    coupling, axis, r, p = _FIGURE_PARAMS[figure]
    return [SweepSpec(_linked(ChannelSpec(kind, coupling), p), axis, r)
            for kind in channels.KINDS]
