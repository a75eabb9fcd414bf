"""Parameter sweeps, sudden-death thresholds and figure datasets.

Grid points are independent pure evaluations; records are assembled in a
deterministic order (outer p, inner r) and written by a single writer.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import channels
from .channels import ChannelSpec, GLOBAL, MULTILOCAL
from .entanglement import pt_spectra
from .errors import IoFailure, OutOfRange
from .state import R_MAX, unruh_state

AXIS_P = "p"
AXIS_R = "r"
AXIS_GRID = "p_and_r"
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
    p_count: int = 101  # over [0, 1]
    r_count: int = 101  # over [0, pi/4]

    def __post_init__(self):
        if self.axis not in AXES:
            raise OutOfRange(f"unknown sweep axis {self.axis!r}")
        if self.p_count < 1 or self.r_count < 1:
            raise OutOfRange("grids must be nonempty")


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated grid point."""

    kind: str
    coupling: str
    global_mode: str  # empty for multilocal coupling
    p1: float
    p2: float
    p: float
    r: float
    negativity: float
    min_pt_eigenvalue: float


# Matrices one ``channels.evolve`` call takes at most.  Larger stacks made
# fresh processes page-fault on their temporaries (10,000-52,000 extra minor
# faults in the six verify reports at 132-512 matrices), and at 224 and 512
# figure 3 ran 5-7 % slower than the parent's one spec per call.
_CHUNK_MATRICES = 128


def evaluate(specs, r_values, allow_incomplete: bool = False):
    """Minimum PT eigenvalues and negativities, each of shape
    (len(specs), len(r_values)), of every spec over one r-axis.

    The specs must differ only in p1, p2 and p.  The r-axis states are
    built once; each chunk of specs evolves the whole stack in one
    ``channels.evolve`` call, which shares the Kraus sets the specs have
    in common, and takes its PT spectra in one eigensolver call.
    """
    states = np.stack([unruh_state(float(r)) for r in r_values])
    min_eig = np.empty((len(specs), len(states)))
    neg = np.empty_like(min_eig)
    step = max(1, _CHUNK_MATRICES // len(states))
    for i in range(0, len(specs), step):
        eig, neg[i:i + step] = pt_spectra(
            channels.evolve(states, specs[i:i + step], allow_incomplete))
        min_eig[i:i + step] = eig[..., 0]
    return min_eig, neg


def _linked(channel: ChannelSpec, p: float) -> ChannelSpec:
    """The channel with p applied to p1, p2 and, for global coupling, the
    collective p."""
    return channel.with_params(p1=p, p2=p,
                               p=p if channel.coupling == GLOBAL else None)


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep grid; one record per point, outer p, inner r."""
    p_grid = np.linspace(0.0, 1.0, spec.p_count)
    specs = ([spec.channel] if spec.axis == AXIS_R
             else [_linked(spec.channel, float(p)) for p in p_grid])
    r_values = ([spec.r] if spec.axis == AXIS_P
                else np.linspace(0.0, R_MAX, spec.r_count))
    min_eig, neg = evaluate(specs, r_values)
    records = []
    for ch, eig_row, neg_row in zip(specs, min_eig.tolist(), neg.tolist()):
        global_ = ch.coupling == GLOBAL
        fixed = (ch.kind, ch.coupling, ch.global_mode if global_ else "",
                 ch.p1, ch.p2, ch.p if global_ else 0.0)
        records.extend(SweepRecord(*fixed, float(r), n, e)
                       for r, n, e in zip(r_values, neg_row, eig_row))
    return records


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
    prev = 0.0
    crossing = None
    for k in range(100):  # p = 0.00, 0.01, ..., 0.99
        p = k / 100.0
        if f(p) <= ESD_NEGATIVITY_FLOOR:
            crossing = p
            break
        prev = p
    if crossing is None:
        return None
    if crossing == 0.0:
        return 0.0
    lo, hi = prev, crossing
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


def _atomic_write(destination: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(destination))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                # mkstemp makes the file owner-only; give it open()'s mode.
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp_path, destination)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {destination!r}: {exc}") from exc


# One %-template per output row; '%.12g' % x is f"{x:.12g}" for every float.
_CSV_ROW = "%s,%s,%s" + ",%.12g" * 6
_PLOT_ROW = " ".join(["%.12g"] * 6)


def _numbers(rec: SweepRecord) -> tuple:
    """The numeric fields of a row: p1, p2, p, r and the two results."""
    return (rec.p1, rec.p2, rec.p, rec.r, rec.negativity, rec.min_pt_eigenvalue)


def write_csv(records: list[SweepRecord], destination: str) -> int:
    """Write records as CSV (12 significant digits, LF endings, atomic).

    Returns the number of data rows written.
    """
    if not records:
        raise OutOfRange("refusing to write an empty record list")
    lines = [CSV_HEADER]
    lines.extend(_CSV_ROW % (r.kind, r.coupling, r.global_mode, *_numbers(r))
                 for r in records)
    _atomic_write(destination, "\n".join(lines) + "\n")
    return len(records)


def write_plot_data(records: list[SweepRecord], destination: str) -> int:
    """Write records as blank-line-separated blocks, one per curve.

    A curve is a (channel, coupling, global mode) group; the block order
    follows first appearance.  Returns the block count.
    """
    if not records:
        raise OutOfRange("refusing to write an empty record list")
    groups: dict[tuple, list[SweepRecord]] = {}
    for rec in records:
        groups.setdefault((rec.kind, rec.coupling, rec.global_mode), []).append(rec)
    blocks = []
    for (kind, coupling, gmode), recs in groups.items():
        label = f"# {kind} {coupling}" + (f" {gmode}" if gmode else "")
        body = "\n".join(_PLOT_ROW % _numbers(r) for r in recs)
        blocks.append(label + "\n" + body + "\n")
    _atomic_write(destination, "\n".join(blocks))
    return len(groups)


# Figure-style presets: four-channel overlays on shared grids.
FIGURES = ("1a", "1b", "1c", "1d", "2a", "2b", "2c", "2d", "3")

_FIGURE_PARAMS = {
    "1a": (MULTILOCAL, AXIS_P, math.pi / 6, None),
    "1b": (MULTILOCAL, AXIS_P, math.pi / 4, None),
    "1c": (MULTILOCAL, AXIS_R, None, 0.3),
    "1d": (MULTILOCAL, AXIS_R, None, 0.7),
    "2a": (GLOBAL, AXIS_P, math.pi / 6, None),
    "2b": (GLOBAL, AXIS_P, math.pi / 4, None),
    "2c": (GLOBAL, AXIS_R, None, 0.3),
    "2d": (GLOBAL, AXIS_R, None, 0.7),
    "3": (GLOBAL, AXIS_GRID, None, None),
}


def figure_sweeps(figure: str, steps: int = 101) -> list[SweepSpec]:
    """SweepSpecs (one per channel) reproducing a preset figure dataset."""
    if figure not in FIGURES:
        raise OutOfRange(f"unknown figure {figure!r}")
    coupling, axis, r_fixed, p_fixed = _FIGURE_PARAMS[figure]
    specs = []
    for kind in channels.KINDS:
        if axis == AXIS_R:
            template = ChannelSpec(
                kind=kind, coupling=coupling,
                p1=p_fixed, p2=p_fixed,
                p=p_fixed if coupling == GLOBAL else 0.0,
            )
            specs.append(SweepSpec(channel=template, axis=axis,
                                   p_count=steps, r_count=steps))
        else:
            template = ChannelSpec(kind=kind, coupling=coupling)
            specs.append(
                SweepSpec(channel=template, axis=axis, r=(r_fixed or 0.0),
                          p_count=steps, r_count=steps)
            )
    return specs
