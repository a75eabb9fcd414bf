"""Closed-form minimum partial-transpose eigenvalues and their verification.

The closed forms below are treated as hypotheses: the numeric Kraus
pipeline is the source of truth, and ``verify_against_numeric`` measures
how far each formula deviates from it over a parameter grid.  Square
roots of even powers are resolved as absolute values of the base factors;
with all parameters in [0, 1] every base is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels
from .channels import (
    CORRECTED,
    COUPLINGS,
    DEFAULT_LEVEL_ORDER,
    DEPHASING,
    GLOBAL,
    MULTILOCAL,
    PHASE_FLIP,
    PRODUCT,
)
from .errors import OutOfRange, require_member
from .state import R_MAX, require_parameter
from .sweep import _axis, _result_arrays, evaluate

MATCH = "match"
MISMATCH = "mismatch"

# Largest deviation a closed form may show and still match the pipeline.
_TOLERANCE = 1e-9


def _require_inputs(coupling: str, p1: float, p2: float, p: float, r: float) -> None:
    """Check a closed form's coupling, and p1, p2, p (global only) and r."""
    require_member("coupling", coupling, COUPLINGS)
    for name, value in (("p1", p1), ("p2", p2), ("p", p), ("r", r)):
        if name != "p" or coupling == GLOBAL:
            require_parameter(name, value)


def _phase_flip_factor(coupling: str, p1: float, p2: float, p: float) -> float:
    """``phase_flip_lambda`` without its cos^2 r, on checked floats or arrays."""
    if coupling == MULTILOCAL:
        return -0.5 * (1 - p1) * (1 - p2)
    return -0.5 * abs(1 - p) * (1 - p1) ** 2 * abs(1 - p2)


def _dephasing_factor(coupling: str, p1: float, p2: float, p: float) -> float:
    """``dephasing_lambda`` without its cos^2 r, on checked floats or arrays."""
    f2 = 2 * np.sqrt((1 - p2) * p2) + 1
    if coupling == MULTILOCAL:
        return -0.5 * np.sqrt((1 - p1) * f2)
    f = 2 * np.sqrt((1 - p) * p) + 1
    return -0.5 * np.sqrt(f * (1 - p1) ** 2 * f2)


def phase_flip_lambda(
    coupling: str, p1: float, p2: float, p: float, r: float
) -> float:
    """Closed-form most-negative PT eigenvalue for the phase-flip channel.

    multilocal: -1/2 (1-p1)(1-p2) cos^2 r
    global:     -1/2 (1-p)(1-p1)^2 (1-p2) cos^2 r

    The global line is evaluated literally as written; verification shows
    the pipeline actually follows -1/2 (1-p)^2 (1-p1)(1-p2) cos^2 r, i.e.
    the exponents on (1-p) and (1-p1) are swapped, so the global verdict
    is a recorded mismatch.
    """
    _require_inputs(coupling, p1, p2, p, r)
    return _phase_flip_factor(coupling, p1, p2, p) * math.cos(r) ** 2


def dephasing_lambda(
    coupling: str, p1: float, p2: float, p: float, r: float
) -> float:
    """Closed-form most-negative PT eigenvalue for the dephasing channel.

    multilocal: -1/2 sqrt((1-p1) (2 sqrt((1-p2) p2) + 1)) cos^2 r
    global:     -1/2 sqrt((2 sqrt((1-p) p) + 1) (1-p1)^2
                          (2 sqrt((1-p2) p2) + 1)) cos^2 r

    The p2 factor is non-monotonic (it peaks at p2 = 1/2), so this formula
    can exceed the physical bound 1/2; it is evaluated literally and left
    to verification to judge.
    """
    _require_inputs(coupling, p1, p2, p, r)
    return float(_dephasing_factor(coupling, p1, p2, p) * math.cos(r) ** 2)


# The closed forms; ``verify_against_numeric`` evaluates each factor on arrays.
_FACTORS = {PHASE_FLIP: _phase_flip_factor, DEPHASING: _dephasing_factor}
ANALYTIC_KINDS = tuple(_FACTORS)
# Kept only because perfbench/test_perfbench.py reads _LAMBDAS["phase_flip"].
_LAMBDAS = {PHASE_FLIP: phase_flip_lambda, DEPHASING: dephasing_lambda}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing a closed form against the numeric pipeline."""

    kind: str
    coupling: str
    global_mode: str
    grid_description: str
    tolerance: float
    max_abs_deviation: float
    worst_point: tuple[float, float, float, float]  # (p1, p2, p, r)
    verdict: str


def verify_against_numeric(
    kind: str,
    coupling: str,
    global_mode: str = PRODUCT,
    grid_points: int | None = None,
    variant: str = CORRECTED,
    level_order: str = DEFAULT_LEVEL_ORDER,
) -> VerificationReport:
    """Compare a closed-form eigenvalue against the numeric pipeline.

    At every grid point the analytic lambda is compared with the numeric
    minimum PT eigenvalue and the analytic-implied negativity
    max(0, -lambda) with the numeric negativity; the report records the
    worst deviation across both.  A mismatch is a result, not an error.
    The grid has ``grid_points`` per axis: by default 21 for multilocal
    coupling and 11 for global coupling, whose grid has a fourth axis.
    """
    if kind not in ANALYTIC_KINDS:
        raise OutOfRange(f"no closed form available for channel {kind!r}")
    if grid_points is None:
        grid_points = 21 if coupling == MULTILOCAL else 11
    if grid_points < 2:
        raise OutOfRange("grid_points must be at least 2")
    axis = _axis(1.0, grid_points)
    r_axis = _axis(R_MAX, grid_points)
    p_axis = axis if coupling == GLOBAL else np.array([0.0])
    # Sized from the axes: too large a grid is refused before its spec or (n, 3) rows.
    out = _result_arrays(len(axis) ** 2 * len(p_axis), len(r_axis))

    spec = channels.ChannelSpec(kind, coupling, global_mode=global_mode,
                                variant=variant, level_order=level_order)
    # (p1, p2, p) rows, p1 outermost.
    params = np.stack(np.meshgrid(axis, axis, p_axis, indexing="ij"), -1).reshape(-1, 3)
    min_eig, neg = evaluate(spec, params, r_axis, allow_incomplete=True, out=out)
    # factor * cos^2 r: the same float operations as the public closed forms.
    cos2 = np.array([math.cos(float(r)) ** 2 for r in r_axis])
    analytic = _FACTORS[kind](coupling, *params.T)[:, None] * cos2
    dev = np.maximum(np.abs(analytic - min_eig),
                     np.abs(np.maximum(0.0, -analytic) - neg))
    # argmax in (r, row) order picks the first worst point of the nested
    # loop r, p1, p2, p.
    r_i, row = divmod(int(dev.T.argmax()), len(params))
    worst = float(dev[row, r_i])
    worst_point = (*params[row].tolist(), float(r_axis[r_i]))
    axes = ("p1", "p2", "p", "r") if coupling == GLOBAL else ("p1", "p2", "r")
    grid_desc = "x".join([str(grid_points)] * len(axes)) + f" ({', '.join(axes)})"
    return VerificationReport(
        kind=kind,
        coupling=coupling,
        global_mode=global_mode if coupling == GLOBAL else "-",
        grid_description=grid_desc,
        tolerance=_TOLERANCE,
        max_abs_deviation=worst,
        worst_point=worst_point,
        verdict=MATCH if worst <= _TOLERANCE else MISMATCH,
    )


def format_report(report: VerificationReport) -> str:
    """Deterministic aligned-text rendering of a VerificationReport."""
    p1, p2, p, r = report.worst_point
    lines = [
        f"channel:           {report.kind}",
        f"coupling:          {report.coupling}",
        f"global mode:       {report.global_mode}",
        f"grid:              {report.grid_description}",
        f"tolerance:         {report.tolerance:.12g}",
        f"max abs deviation: {report.max_abs_deviation:.12g}",
        f"worst point:       p1={p1:.12g} p2={p2:.12g} p={p:.12g} r={r:.12g}",
        f"verdict:           {report.verdict}",
    ]
    return "\n".join(lines) + "\n"
