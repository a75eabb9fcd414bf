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
from .entanglement import negativity, pt_spectra
from .errors import IoFailure, OutOfRange
from .state import R_MAX, unruh_state

AXIS_P = "p"
AXIS_R = "r"
AXIS_GRID = "p_and_r"
AXES = (AXIS_P, AXIS_R, AXIS_GRID)

LINKED = "linked"
INDEPENDENT = "independent"

# A state counts as disentangled when its negativity falls to this level;
# this mirrors the max{0, .} clamp in the negativity itself.
ESD_NEGATIVITY_FLOOR = 1e-12

CSV_HEADER = "channel,coupling,global_mode,p1,p2,p,r,negativity,min_pt_eigenvalue"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a channel template plus the axis and grids to walk.

    With ``p_linkage=LINKED`` the swept p value is applied to p1, p2 and
    (for global coupling) the collective p simultaneously; the template's
    own parameter values are used for whatever is not swept.
    """

    channel: ChannelSpec
    axis: str = AXIS_P
    p_linkage: str = LINKED
    r: float = 0.0  # fixed acceleration when the r axis is not swept
    p_count: int = 101
    p_min: float = 0.0
    p_max: float = 1.0
    r_count: int = 101
    r_min: float = 0.0
    r_max: float = R_MAX

    def __post_init__(self):
        if self.axis not in AXES:
            raise OutOfRange(f"unknown sweep axis {self.axis!r}")
        if self.p_linkage not in (LINKED, INDEPENDENT):
            raise OutOfRange(f"unknown p linkage {self.p_linkage!r}")
        if self.p_count < 1 or self.r_count < 1:
            raise OutOfRange("grids must be nonempty")
        if not (0.0 <= self.p_min <= self.p_max <= 1.0):
            raise OutOfRange("p range must lie within [0, 1]")
        if not (0.0 <= self.r_min <= self.r_max <= R_MAX):
            raise OutOfRange("r range must lie within [0, pi/4]")


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


def _initial_states(r_values) -> np.ndarray:
    """The (N, 6, 6) stack of initial states along an r-axis."""
    return np.stack([unruh_state(float(r)).matrix for r in r_values])


def _evaluate(spec: ChannelSpec, r_values, states: np.ndarray) -> list[SweepRecord]:
    """Records for one channel spec over an r-axis, from one batched
    evolution and one batched PT spectrum."""
    eig, neg = pt_spectra(channels.evolve(states, spec))
    global_ = spec.coupling == GLOBAL
    return [
        SweepRecord(
            kind=spec.kind,
            coupling=spec.coupling,
            global_mode=spec.global_mode if global_ else "",
            p1=spec.p1,
            p2=spec.p2,
            p=spec.p if global_ else 0.0,
            r=float(r),
            negativity=n,
            min_pt_eigenvalue=e,
        )
        for r, n, e in zip(r_values, neg.tolist(), eig[:, 0].tolist())
    ]


def _with_swept_p(spec: SweepSpec, p: float) -> ChannelSpec:
    if spec.p_linkage == LINKED:
        if spec.channel.coupling == GLOBAL:
            return spec.channel.with_params(p1=p, p2=p, p=p)
        return spec.channel.with_params(p1=p, p2=p)
    if spec.channel.coupling != GLOBAL:
        raise OutOfRange(
            "independent p linkage sweeps the collective parameter, "
            "which requires global coupling"
        )
    return spec.channel.with_params(p=p)


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep grid; one record per point, outer p, inner r."""
    p_grid = np.linspace(spec.p_min, spec.p_max, spec.p_count)
    if spec.axis == AXIS_P:
        states = _initial_states([spec.r])
        return [rec for p in p_grid
                for rec in _evaluate(_with_swept_p(spec, float(p)), [spec.r], states)]
    r_grid = np.linspace(spec.r_min, spec.r_max, spec.r_count)
    states = _initial_states(r_grid)
    if spec.axis == AXIS_R:
        return _evaluate(spec.channel, r_grid, states)
    records = []
    for p in p_grid:
        records.extend(_evaluate(_with_swept_p(spec, float(p)), r_grid, states))
    return records


def _linked_negativity(channel: ChannelSpec, p: float, r: float) -> float:
    if channel.coupling == GLOBAL:
        spec = channel.with_params(p1=p, p2=p, p=p)
    else:
        spec = channel.with_params(p1=p, p2=p)
    return negativity(channels.evolve(unruh_state(r), spec)).negativity


def esd_threshold(channel: ChannelSpec, r: float, p_tol: float = 1e-6):
    """Smallest linked p at which negativity falls to the disentanglement
    floor, or None when the state stays entangled across [0, 1).

    Coarse scan at step 0.01, then bisection of the first crossing down to
    ``p_tol``.  The scan takes the first crossing, so a single threshold
    is well defined even if negativity were not monotone.
    """
    if p_tol <= 0:
        raise OutOfRange("p_tol must be positive")
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
                fh.write(text)
            os.replace(tmp_path, destination)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {destination!r}: {exc}") from exc


def _record_fields(rec: SweepRecord) -> list[str]:
    return [
        rec.kind,
        rec.coupling,
        rec.global_mode,
        _fmt(rec.p1),
        _fmt(rec.p2),
        _fmt(rec.p),
        _fmt(rec.r),
        _fmt(rec.negativity),
        _fmt(rec.min_pt_eigenvalue),
    ]


def write_csv(records: list[SweepRecord], destination: str) -> int:
    """Write records as CSV (12 significant digits, LF endings, atomic).

    Returns the number of data rows written.
    """
    if not records:
        raise OutOfRange("refusing to write an empty record list")
    lines = [CSV_HEADER]
    lines.extend(",".join(_record_fields(r)) for r in records)
    _atomic_write(destination, "\n".join(lines) + "\n")
    return len(records)


def read_csv(path: str) -> list[SweepRecord]:
    """Parse a file produced by write_csv back into records."""
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {path!r}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise IoFailure(f"{path!r} is not a sweep CSV (bad header)")
    records = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            kind, coupling, gmode, p1, p2, p, r, neg, mineig = line.split(",")
            records.append(
                SweepRecord(
                    kind=kind,
                    coupling=coupling,
                    global_mode=gmode,
                    p1=float(p1),
                    p2=float(p2),
                    p=float(p),
                    r=float(r),
                    negativity=float(neg),
                    min_pt_eigenvalue=float(mineig),
                )
            )
        except ValueError as exc:
            raise IoFailure(f"{path!r} line {lineno}: malformed row {line!r}") from exc
    return records


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
        body = "\n".join(
            " ".join([_fmt(r.p1), _fmt(r.p2), _fmt(r.p), _fmt(r.r),
                      _fmt(r.negativity), _fmt(r.min_pt_eigenvalue)])
            for r in recs
        )
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
