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


# Matrices one ``channels.evolve`` call takes at most.  Larger stacks made
# fresh processes page-fault on their temporaries (10,000-52,000 extra minor
# faults in the six verify reports at 132-512 matrices).  Re-measured with
# the per-stage set cache (BENCH_23.json, six rounds each): against 128, the
# six verify reports took 44 % longer at 64 and 6 % longer at 256, with 0 of
# 6 rounds faster than 128 either way, and 256 raised peak memory by 0.5 MiB.
_CHUNK_MATRICES = 128


def _result_arrays(rows: int, columns: int):
    """Empty minimum-PT-eigenvalue and negativity arrays of a grid, each
    of shape (rows, columns); OutOfRange when they do not fit."""
    try:
        min_eig = np.empty((rows, columns))
        return min_eig, np.empty_like(min_eig)
    # The grid fits, its result arrays do not: numpy cannot allocate them
    # (MemoryError), or refuses their size before it tries (ValueError).
    except (MemoryError, ValueError) as exc:
        raise OutOfRange(f"a grid of {rows * columns} points is too large") from exc


def evaluate(spec, params, r_values, allow_incomplete: bool = False, out=None):
    """Minimum PT eigenvalues and negativities, each (n, len(r_values)), of
    ``spec`` at each (p1, p2, p) row of the (n, 3) array ``params``, or at
    its own values (n = 1) for None, over one r-axis; written into ``out``
    (from ``_result_arrays``) when given.

    The r-axis states are built and validated once, as one stack.  Each
    chunk of rows evolves the whole stack in one ``channels.evolve`` call
    and takes its PT spectra in one eigensolver call: validation certifies
    PSD by one Cholesky factorisation per stack and calls the eigensolver
    only for a stack that fails a check.  Only a chunk with raw rows
    (``allow_incomplete``) has its partial transposes checked for
    hermiticity; ``evolve`` has validated the rows of every other chunk.
    """
    if len(r_values) == 0:
        raise OutOfRange("the r axis is empty")
    states = unruh_state(r_values)
    n = 1 if params is None else len(params)
    min_eig, neg = _result_arrays(n, len(states)) if out is None else out
    step = max(1, _CHUNK_MATRICES // len(states))
    for i in range(0, n or 1, step):  # evolve refuses an empty params
        chunk = None if params is None else params[i:i + step]
        rows = channels.evolve(states, spec, chunk, allow_incomplete)
        # evolve returns a read-only array exactly when it validated every row.
        eig, neg[i:i + step] = pt_spectra(rows, validated=not rows.flags.writeable)
        min_eig[i:i + step] = eig[..., 0]
    return min_eig, neg


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
    """Evaluate the sweep grid: one row per swept p, one column per r."""
    c = spec.channel
    row = ((c.p1, c.p2, c.p) if spec.axis == AXIS_R
           else _linked_row(c, _axis(1.0, spec.steps)))
    params = np.stack(np.broadcast_arrays(*row), axis=-1).reshape(-1, 3)
    r = np.array([spec.r], float) if spec.axis == AXIS_P else _axis(R_MAX, spec.steps)
    min_eig, neg = evaluate(c, params, r)
    return SweepResult(c, params, r, neg, min_eig)


def _linked_negativity(channel: ChannelSpec, p: float, r: float) -> float:
    return float(evaluate(_linked(channel, p), None, [r])[1][0, 0])


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


def _atomic_write_files(destinations, steps) -> None:
    """Write each step's texts, one per destination, in order, to temp files
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


def _atomic_write(destination: str, chunks) -> None:
    """``_atomic_write_files`` of the text chunks to one destination."""
    _atomic_write_files([destination], ((chunk,) for chunk in chunks))


def _texts(results: list[SweepResult], csv: bool = True, dat: bool = True):
    """The CSV and the .dat text of the results, as one (csv, dat) pair of
    chunks per step: the CSV header, then per result its block label and
    one chunk per parameter row (outer row, inner r) whose lines each end
    in LF.  ``csv=False`` or ``dat=False`` leaves that file's chunks empty.

    Each line is formatted once, by one template: the fields from p1 on,
    comma-separated, with p1, p2 and p formatted once per row, r once per
    result and the two results per point ('%.12g' % x is _fmt(x) for every
    float).  A CSV line is that line behind the kind, coupling and mode,
    formatted once per result; a .dat line is that line with its commas
    made spaces: no field holds a comma.  Under multilocal coupling the
    mode is empty and p is 0.
    """
    yield (CSV_HEADER + "\n" if csv else ""), ""
    for i, res in enumerate(results):
        c = res.channel
        fixed = [c.kind, c.coupling, c.global_mode if c.coupling == GLOBAL else ""]
        if dat:
            yield "", ("\n" if i else "") + "# " + " ".join(filter(None, fixed)) + "\n"
        labels = ",".join(fixed) + ","
        r_text = [_fmt(r) for r in res.r.tolist()]
        for (p1, p2, p), negs, eigs in zip(res.params.tolist(), res.negativity,
                                           res.min_pt_eigenvalue):
            head = "%.12g,%.12g,%.12g," % (p1, p2, p if c.coupling == GLOBAL else 0.0)
            lines = [head + r + ",%.12g,%.12g\n" % ne
                     for r, ne in zip(r_text, zip(negs.tolist(), eigs.tolist()))]
            yield ("".join([labels + line for line in lines]) if csv else "",
                   "".join(lines).replace(",", " ") if dat else "")


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
    steps = _texts(_nonempty(results), dat=plot_data is not None)
    if plot_data is None:
        _atomic_write(destination, (text for text, _ in steps))
    else:
        _atomic_write_files([destination, plot_data], steps)
    return sum(res.negativity.size for res in results)


def write_plot_data(results: list[SweepResult], destination: str) -> int:
    """Write results as blank-line-separated blocks, one per result in
    input order, labelled with its kind, coupling and global mode; a
    result is one curve or, for a p-and-r grid, one surface.  Written one
    parameter row at a time.

    Returns the block count.
    """
    steps = _texts(_nonempty(results), csv=False)
    _atomic_write(destination, (text for _, text in steps))
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
