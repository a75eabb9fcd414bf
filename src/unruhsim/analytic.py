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
    DEFAULT_LEVEL_ORDER,
    DEPHASING,
    GLOBAL,
    MULTILOCAL,
    PHASE_FLIP,
    PRODUCT,
)
from .errors import OutOfRange
from .state import R_MAX
from .sweep import _axis, evaluate

MATCH = "match"
MISMATCH = "mismatch"

# Largest deviation a closed form may show and still match the pipeline.
_TOLERANCE = 1e-9


def _check(value: float, name: str, hi: float = 1.0) -> float:
    if not (0.0 <= value <= hi):
        raise OutOfRange(f"{name}={value!r} outside [0, {hi:g}]")
    return float(value)


def _phase_flip_factor(coupling: str, p1: float, p2: float, p: float) -> float:
    """``phase_flip_lambda`` without its cos^2 r."""
    if coupling == MULTILOCAL:
        return -0.5 * (1 - p1) * (1 - p2)
    if coupling == GLOBAL:
        _check(p, "p")
        return -0.5 * abs(1 - p) * (1 - p1) ** 2 * abs(1 - p2)
    raise OutOfRange(f"unknown coupling {coupling!r}")


def _dephasing_factor(coupling: str, p1: float, p2: float, p: float) -> float:
    """``dephasing_lambda`` without its cos^2 r."""
    f2 = 2 * math.sqrt((1 - p2) * p2) + 1
    if coupling == MULTILOCAL:
        return -0.5 * math.sqrt((1 - p1) * f2)
    if coupling == GLOBAL:
        _check(p, "p")
        f = 2 * math.sqrt((1 - p) * p) + 1
        return -0.5 * math.sqrt(f * (1 - p1) ** 2 * f2)
    raise OutOfRange(f"unknown coupling {coupling!r}")


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
    _check(p1, "p1"), _check(p2, "p2"), _check(r, "r", R_MAX)
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
    _check(p1, "p1"), _check(p2, "p2"), _check(r, "r", R_MAX)
    return _dephasing_factor(coupling, p1, p2, p) * math.cos(r) ** 2


# The closed forms; ``verify_against_numeric`` evaluates each factor once per spec.
_LAMBDAS = {PHASE_FLIP: phase_flip_lambda, DEPHASING: dephasing_lambda}
_FACTORS = {PHASE_FLIP: _phase_flip_factor, DEPHASING: _dephasing_factor}
ANALYTIC_KINDS = tuple(_LAMBDAS)


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
    factor = _FACTORS[kind]
    axis = _axis(1.0, grid_points)
    r_axis = _axis(R_MAX, grid_points)
    p_axis = axis if coupling == GLOBAL else np.array([0.0])

    specs = [
        channels.ChannelSpec(kind, coupling, float(p1), float(p2), float(p),
                             global_mode, variant, level_order)
        for p1 in axis for p2 in axis for p in p_axis
    ]
    min_eig, neg = evaluate(specs, r_axis, allow_incomplete=True)
    # factor * cos^2 r: the same float operations as the public closed forms.
    cos2 = np.array([math.cos(float(r)) ** 2 for r in r_axis])
    analytic = np.array([[factor(coupling, s.p1, s.p2, s.p)] for s in specs]) * cos2
    dev = np.maximum(np.abs(analytic - min_eig),
                     np.abs(np.maximum(0.0, -analytic) - neg))
    # Reorder to the (r, p1, p2, p) order of a nested loop, so argmax picks
    # the first worst point in that order.
    dev = dev.reshape(len(axis), len(axis), len(p_axis), len(r_axis))
    dev = dev.transpose(3, 0, 1, 2)
    worst_index = np.unravel_index(dev.argmax(), dev.shape)
    worst = float(dev[worst_index])
    r_i, p1_i, p2_i, p_i = worst_index
    worst_point = (float(axis[p1_i]), float(axis[p2_i]), float(p_axis[p_i]),
                   float(r_axis[r_i]))
    n = grid_points
    grid_desc = (
        f"{n}x{n}x{n}x{n} (p1, p2, p, r)"
        if coupling == GLOBAL
        else f"{n}x{n}x{n} (p1, p2, r)"
    )
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
