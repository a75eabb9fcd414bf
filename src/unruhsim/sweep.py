"""Parameter sweeps, sudden-death thresholds and figure datasets.

A sweep evaluates to one ``SweepResult``: its template, its linked (p1, p2, p)
row at each p (rows, outer) and its r axis (columns, inner), with one
negativity and one minimum PT eigenvalue array over both.  Only the writers
here lay those out as rows.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import channels
from .channels import ChannelSpec, GLOBAL, MULTILOCAL
from .entanglement import pt_spectra
from .errors import DimensionMismatch, IoFailure, OutOfRange, require_member
from .state import R_MAX, require_parameter, unruh_state

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

    The swept p is linked as ``_linked_row`` says; the template's own
    parameter values are used for whatever is not swept.
    """

    channel: ChannelSpec
    axis: str = AXIS_P
    r: float = 0.0  # fixed acceleration when the r axis is not swept
    steps: int = 101  # points per swept axis: p over [0, 1], r over [0, pi/4]

    def __post_init__(self):
        require_member("sweep axis", self.axis, AXES)
        require_parameter("r", self.r)
        if self.steps < 1:
            raise OutOfRange("grids must be nonempty")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """An evaluated sweep: each array's row i is ``channel`` at ``params[i]`` over r."""

    channel: ChannelSpec
    params: np.ndarray  # (rows, 3)
    r: np.ndarray
    negativity: np.ndarray  # (rows, len(r))
    min_pt_eigenvalue: np.ndarray  # (rows, len(r))

    def __post_init__(self):
        # The writers unpack (p1, p2, p) from each row and count rows by shape.
        shape = (*self.params.shape[:1], len(self.r))
        if (self.params.shape[1:], self.negativity.shape,
                self.min_pt_eigenvalue.shape) != ((3,), shape, shape):
            raise DimensionMismatch(f"sweep result shapes must be (n, 3) and {shape}")


# Matrices one ``channels.evolve`` call takes at most, for r axes up to this long.
# Trials of this bound up to BENCH_23.json measured page-fault churn, not the
# chunk: glibc gave each chunk's large temporaries back to the OS, and the next
# chunk faulted them in again.  With the grid commands keeping the heap
# (``cli._keep_heap``) and ``channels._gather`` scaling in place, 512 was the
# fastest of 256, 384 and 512 on both grid workloads, for 1.1-1.7 MiB more
# peak memory than 128 (BENCH_36.json).
_CHUNK_MATRICES = 512


def evaluate(spec, axes, r_values, allow_incomplete: bool = False):
    """The (n, 3) rows, minimum PT eigenvalues and negativities, each
    (n, len(r_values)), of ``spec`` over one r-axis at each (p1, p2, p) row:
    the C-order broadcast of the triple ``axes`` of floats or arrays (a
    mesh's first axis outermost), or for None the spec's own (rows None).

    Both result arrays are sized first, from the row count as a Python int,
    broadcast one dimension at a time (numpy's whole broadcast refuses a count
    past 2**63), so an oversized grid is refused before its rows or r-axis
    states exist.  The states are built and validated once, as one stack.  Each
    chunk of rows evolves the whole stack in one ``channels.evolve`` call and
    takes its PT spectra in one eigensolver call: validation certifies PSD by
    Gershgorin's disc bound on each stack and calls the eigensolver only for a
    stack that fails a check.  Only a chunk with raw rows (``allow_incomplete``)
    has its partial transposes checked for hermiticity; ``evolve`` has validated
    the rows of every other chunk.  Only the CLI keeps glibc's heap
    (``cli._keep_heap``): other callers fault in each 512-matrix chunk's
    temporaries anew.
    """
    if len(r_values) == 0:
        raise OutOfRange("the r axis is empty")
    dims = axes and zip_longest(*(np.shape(a)[::-1] for a in axes), fillvalue=1)
    n = 1 if axes is None else math.prod(np.broadcast_shapes(*zip(d))[0] for d in dims)
    try:
        min_eig, neg = np.empty((n, len(r_values))), np.empty((n, len(r_values)))
    except (MemoryError, ValueError) as exc:  # numpy cannot, or will not, allocate
        raise OutOfRange(f"a grid of {n * len(r_values)} points is too large") from exc
    params = None if axes is None else np.stack(
        np.broadcast_arrays(*axes), axis=-1).reshape(-1, 3)
    states = unruh_state(r_values)
    step = max(1, _CHUNK_MATRICES // len(states))
    for i in range(0, n or 1, step):  # evolve refuses an empty params
        chunk = None if params is None else params[i:i + step]
        rows = channels.evolve(states, spec, chunk, allow_incomplete)
        # evolve returns a read-only array exactly when it validated every row.
        eig, neg[i:i + step] = pt_spectra(rows, validated=not rows.flags.writeable)
        min_eig[i:i + step] = eig[..., 0]
    return params, min_eig, neg


def _linked_row(channel: ChannelSpec, p):
    """The channel's (p1, p2, p) at linked p, a float or an array of them: p
    goes to p1, p2 and, for global coupling, the collective p."""
    return p, p, p if channel.coupling == GLOBAL else channel.p


def _linked(channel: ChannelSpec, p: float) -> ChannelSpec:
    """The channel at its linked row of p."""
    return ChannelSpec(channel.kind, channel.coupling, *_linked_row(channel, p),
                       channel.global_mode, channel.variant, channel.level_order)


def _axis(stop: float, count: int) -> np.ndarray:
    """``count`` evenly spaced points over [0, stop]."""
    try:
        return np.linspace(0.0, stop, count)
    except (ValueError, MemoryError, IndexError) as exc:  # numpy cannot allocate it
        raise OutOfRange(f"a grid of {count} points is too large") from exc


def run_sweep(spec: SweepSpec) -> SweepResult:
    """The sweep grid: a linked row per p, or the template's own; a column per r."""
    c = spec.channel
    axes = ((c.p1, c.p2, c.p) if spec.axis == AXIS_R
            else _linked_row(c, _axis(1.0, spec.steps)))
    r = np.array([spec.r], float) if spec.axis == AXIS_P else _axis(R_MAX, spec.steps)
    params, min_eig, neg = evaluate(c, axes, r)
    return SweepResult(c, params, r, neg, min_eig)


def _linked_negativity(channel: ChannelSpec, p: float, r: float) -> float:
    return float(evaluate(_linked(channel, p), None, [r])[2][0, 0])


def esd_threshold(channel: ChannelSpec, r: float, p_tol: float = 1e-6):
    """Smallest linked p at which negativity falls to the disentanglement
    floor, or None when the state stays entangled across [0, 1).

    Coarse scan at step 0.01 from p = 0.01 (p = 0 holds no crossing), then
    bisection of the first crossing down to ``p_tol`` or to a one-ulp
    bracket.  The first crossing is taken, so the threshold is well defined
    even if negativity were not monotone.
    """
    if p_tol <= 0:
        raise OutOfRange("p_tol must be positive")
    if not math.isfinite(p_tol):  # nan passes the check above
        raise OutOfRange(f"p_tol must be finite, got {p_tol!r}")
    f = lambda p: _linked_negativity(channel, p, r)
    k = next((k for k in range(1, 100) if f(k / 100.0) <= ESD_NEGATIVITY_FLOOR), None)
    if k is None:
        return None
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


def _cannot_write(destination: str, exc: Exception) -> IoFailure:
    reason = getattr(exc, "strerror", None) or exc  # strerror names no temp file
    return IoFailure(f"cannot write {destination!r}: {reason}")


def _require_directory(destination: str) -> None:
    """``_atomic_write``'s IoFailure, raised early: the directory is missing,
    or the destination is itself a directory."""
    try:
        os.stat(os.path.join(os.path.dirname(destination) or ".", ""))
        if os.path.isdir(destination) and not os.path.islink(destination):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except (OSError, ValueError) as exc:
        raise _cannot_write(destination, exc) from exc


def _atomic_write(destinations, steps) -> None:
    """Write each step's texts, one per destination (a text past the last
    destination is dropped), in order, to temp files
    (open()'s mode) beside the destinations, and once every temp file is
    complete move each into place with one ``os.replace``: a reader sees the
    old file or the whole new one; a failure before the first move, while
    writing or while a step is made, leaves every old file and no temp file.
    OSError and ValueError become IoFailure naming the destination at fault."""
    temps = [os.path.join(os.path.dirname(d) or ".", f"tmp{os.urandom(8).hex()}.tmp")
             for d in destinations]
    pending, files = [], []  # temp files not yet moved, files opened
    at = destinations[0]  # each loop rebinds it: the destination at fault
    try:
        try:
            for at, tmp in zip(destinations, temps):
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                pending.append(tmp)
                files.append(os.fdopen(fd, "w", newline="\n"))
            for texts in steps:
                for at, fh, text in zip(destinations, files, texts):
                    fh.write(text)
            for at, fh in zip(destinations, files):
                fh.close()
            for at, tmp in zip(destinations, temps):
                os.replace(tmp, at)
                pending.remove(tmp)
        finally:
            for fh in files:
                with contextlib.suppress(OSError):  # a failed flush, raised already
                    fh.close()
            for tmp in pending:
                os.unlink(tmp)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in a path
        raise _cannot_write(at, exc) from exc


def _texts(results: list[SweepResult]):
    """The CSV and the .dat text of the results, as one (csv, dat) pair of
    chunks per step: the CSV header, then per result its block label and
    one chunk per parameter row (outer row, inner r) whose lines each end
    in LF.  Every writer formats both; one writing one file drops the other.

    A row's lines are formatted at once, by one template: its lines from
    p1 on, comma-separated, with p1, p2 and p formatted once per row and r
    once per result, filled by one '%' over the row's interleaved
    (negativity, min eigenvalue) values ('%.12g' % x is _fmt(x) for every
    float; no formatted field holds a '%').  A CSV line is that line
    behind the kind, coupling and mode, formatted once per result; a .dat
    line is that line with its commas made spaces: no field holds a comma.
    Under multilocal coupling the mode is empty and p is 0.
    """
    yield CSV_HEADER + "\n", ""
    for i, res in enumerate(results):
        c = res.channel
        fixed = [c.kind, c.coupling, c.global_mode if c.coupling == GLOBAL else ""]
        yield "", ("\n" if i else "") + "# " + " ".join(filter(None, fixed)) + "\n"
        labels = ",".join(fixed) + ","
        tails = [_fmt(r) + ",%.12g,%.12g\n" for r in res.r.tolist()]
        for (p1, p2, p), negs, eigs in zip(res.params.tolist(), res.negativity,
                                           res.min_pt_eigenvalue):
            head = "%.12g,%.12g,%.12g," % (p1, p2, p if c.coupling == GLOBAL else 0.0)
            # Every tail ends its line, so head + head.join(tails) heads each line.
            text = (head + head.join(tails)) % tuple(
                np.column_stack((negs, eigs)).ravel().tolist())
            yield (labels + text[:-1].replace("\n", "\n" + labels) + "\n",
                   text.replace(",", " "))


def _nonempty(results: list[SweepResult]) -> list[SweepResult]:
    if not results or any(res.negativity.size == 0 for res in results):
        raise OutOfRange("refusing to write an empty sweep")
    return results


def write_csv(results: list[SweepResult], destination: str,
              plot_data: str | None = None) -> int:
    """Write results as CSV (12 significant digits, LF endings, atomic),
    one parameter row at a time.  With ``plot_data``, the same pass writes
    ``write_plot_data``'s file there from the same formatted values, and
    neither file is replaced before both are complete.

    Returns the number of data rows written.
    """
    _atomic_write([destination] if plot_data is None else [destination, plot_data],
                  _texts(_nonempty(results)))
    return sum(res.negativity.size for res in results)


def write_plot_data(results: list[SweepResult], destination: str) -> int:
    """Write results as blank-line-separated blocks, one per result in
    input order, labelled with its kind, coupling and global mode; a
    result is one curve or, for a p-and-r grid, one surface.  Written one
    parameter row at a time.

    Returns the block count.
    """
    _atomic_write([destination], ((dat,) for _, dat in _texts(_nonempty(results))))
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
    require_member("figure", figure, FIGURES)
    coupling, axis, r, p = _FIGURE_PARAMS[figure]
    return [SweepSpec(_linked(ChannelSpec(kind, coupling), p), axis, r)
            for kind in channels.KINDS]
