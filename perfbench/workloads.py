"""The three workloads: the CLI calls of each pass and their output checks.

Every workload drives ``unruhsim.cli.main`` with argument lists only, so
it keeps working while the package internals are rewritten.  A pass is
the unit that runs in one fresh interpreter:

* ``fig3_grid``  - ``repro --figure 3``: 4 kinds x 101 p x 101 r global
  product points, a 40,804-row CSV and the ``.dat`` blocks.  Each channel
  spec is reused across 101 r values, and it is the only large write.
* ``verify_all`` - the six ``verify`` reports of
  ``scripts/verify_formulas.py`` (21^3 multilocal, 11^4 global grids,
  77,086 points).  The only workload that runs ``analytic``; r is the
  outer loop, so a spec is reused only 11-21 times.
* ``esd_search`` - ``esd`` for all 8 kind x coupling pairs at one r per
  pass: pi/4 first, then seed-drawn r values.  Each search is a chain of
  dependent evaluations and every spec is evaluated once per process, so
  per-spec caching and r-axis batching are bypassed.

Checks run after the timed calls and return failure messages.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "references.json")) as _fh:
    REFERENCES = json.load(_fh)

# One evaluation on a spec that none of the workloads uses (p1 != p2 is
# never linked, and neither value lies on a verify or figure grid).
WARMUP_ARGV = ["negativity", "--channel", "bit-trit-flip", "--coupling", "ml",
               "--p1", "0.123", "--p2", "0.456", "--r", "0.3"]

FIG3_POINTS = 4 * 101 * 101

VERIFY_REPORTS = (
    ("phase-flip", "multilocal", None),
    ("phase-flip", "global", "product"),
    ("phase-flip", "global", "correlated"),
    ("dephasing", "multilocal", None),
    ("dephasing", "global", "product"),
    ("dephasing", "global", "correlated"),
)
VERIFY_POINTS = sum(21 ** 3 if c == "multilocal" else 11 ** 4
                    for _, c, _ in VERIFY_REPORTS)

ESD_KINDS = ("phase-flip", "dephasing", "bit-trit-flip", "bit-trit-phase-flip")
ESD_COUPLINGS = ("multilocal", "global")
ESD_TOL = 1e-6          # the CLI's default bisection tolerance
ESD_FLOOR = 1e-12       # negativity at or below this counts as separable
ESD_FROZEN_ABS = 2e-6   # tolerance of the frozen constants in the tests
ESD_LAST_SCAN_P = 0.99  # last point of the coarse scan
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def call_main(main, argv):
    """Run one CLI call with its output captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _failed_call(argv, code, err) -> str:
    return f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}"


# -- job generators: an endless sequence of passes for one seed ---------------

def fig3_jobs(seed: int, work_dir: str):
    for i in itertools.count():
        out_dir = os.path.join(work_dir, f"fig3_{i}")
        yield {"workload": "fig3_grid", "points": FIG3_POINTS, "out_dir": out_dir,
               "argvs": [["repro", "--figure", "3", "--out-dir", out_dir]]}


def verify_argv(kind, coupling, mode):
    argv = ["verify", "--channel", kind, "--coupling", coupling]
    return argv + (["--global-mode", mode] if mode else [])


def verify_jobs(seed: int, work_dir: str):
    while True:
        yield {"workload": "verify_all", "points": VERIFY_POINTS,
               "argvs": [verify_argv(*report) for report in VERIFY_REPORTS]}


def esd_r_values(seed: int):
    """pi/4, then a golden-ratio sequence over [0, pi/4] offset by the seed,
    so every prefix covers the interval evenly whatever the seed."""
    yield "pi/4"
    u = random.Random(seed).random()
    while True:
        u = (u + GOLDEN) % 1.0
        yield repr(u * math.pi / 4)


def esd_jobs(seed: int, work_dir: str):
    for r in esd_r_values(seed):
        yield {"workload": "esd_search", "points": 8, "r": r,
               "argvs": [["esd", "--channel", k, "--coupling", c, "--r", r]
                         for k in ESD_KINDS for c in ESD_COUPLINGS]}


# -- checks ---------------------------------------------------------------------

def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_fig3(job, calls, main, root):
    """Both output files must match the sha256 recorded at the seed commit."""
    failures = []
    (argv, code, _, err), = calls
    for name, expected in REFERENCES["fig3_sha256"].items():
        if code != 0:
            failures.append(f"{name}: {_failed_call(argv, code, err)}")
            continue
        path = os.path.join(job["out_dir"], name)
        try:
            digest = sha256(path)
        except OSError as exc:
            failures.append(f"{name}: {exc}")
            continue
        if digest != expected:
            failures.append(f"{name}: sha256 {digest} != reference {expected}")
    shutil.rmtree(job["out_dir"], ignore_errors=True)
    return len(REFERENCES["fig3_sha256"]), failures


def fixture_path(root, kind, coupling, mode) -> str:
    stem = f"verify_{kind.replace('-', '_')}_{coupling}" + (f"_{mode}" if mode else "")
    return os.path.join(root, "tests", "fixtures", stem + ".txt")


def check_verify(job, calls, main, root):
    """Each report must equal its committed fixture byte for byte."""
    failures = []
    for report, (argv, code, out, err) in zip(VERIFY_REPORTS, calls):
        if code != 0:
            failures.append(_failed_call(argv, code, err))
            continue
        path = fixture_path(root, *report)
        try:
            with open(path, "rb") as fh:
                expected = fh.read()
        except OSError as exc:
            failures.append(f"{path}: {exc}")
            continue
        if out.encode() != expected:
            failures.append(f"{' '.join(argv)}: report differs from {path}")
    return len(VERIFY_REPORTS), failures


def _negativity(main, kind, coupling, p, r):
    argv = ["negativity", "--channel", kind, "--coupling", coupling,
            "--p", repr(p), "--r", r]
    code, out, err = call_main(main, argv)
    if code != 0:
        raise ValueError(_failed_call(argv, code, err))
    return float(out)


def check_esd_search(kind, coupling, r, text, main):
    """Failure message for one search, or None when its answer holds."""
    frozen = REFERENCES["esd_pi_4"].get(f"{kind} {coupling}")
    if r == "pi/4":
        if frozen is None:
            return None if text == "none" else f"expected none, got {text}"
        if text == "none" or abs(float(text) - frozen) > ESD_FROZEN_ABS:
            return f"expected {frozen} (abs {ESD_FROZEN_ABS}), got {text}"
        return None
    # Seed-drawn r: the answer must be a sign crossing of the negativity.
    if text == "none":
        n = _negativity(main, kind, coupling, ESD_LAST_SCAN_P, r)
        return None if n > ESD_FLOOR else f"none, but negativity({ESD_LAST_SCAN_P}) = {n}"
    t = float(text)
    at = _negativity(main, kind, coupling, t, r)
    if at > ESD_FLOOR:
        return f"threshold {t}: negativity {at} above {ESD_FLOOR}"
    if t > 0.0:
        before = _negativity(main, kind, coupling, max(t - ESD_TOL, 0.0), r)
        if before <= ESD_FLOOR:
            return f"threshold {t}: negativity {before} at t - tol not above {ESD_FLOOR}"
    return None


def check_esd(job, calls, main, root):
    failures = []
    for argv, code, out, err in calls:
        if code != 0:
            failures.append(_failed_call(argv, code, err))
            continue
        kind, coupling = argv[2], argv[4]
        try:
            problem = check_esd_search(kind, coupling, job["r"], out.strip(), main)
        except ValueError as exc:
            problem = str(exc)
        if problem:
            failures.append(f"{' '.join(argv)}: {problem}")
    return len(calls), failures


# name -> (job generator, output check, CLI calls a run needs at least;
# 100 searches give p90 ten samples beyond it).
WORKLOADS = {
    "fig3_grid": (fig3_jobs, check_fig3, 1),
    "verify_all": (verify_jobs, check_verify, 1),
    "esd_search": (esd_jobs, check_esd, 100),
}
