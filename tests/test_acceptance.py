"""End-to-end acceptance gate.

One test per required behavior.  Three of the qualitative sudden-death
expectations (global flip-channel threshold window, global trit-phase-flip
immunity, multilocal immunity) are known not to hold for any
trace-preserving reading of the channel definitions; those tests are kept
faithful to the stated expectation and left failing rather than weakened.
See notes in the project ledger for the analysis.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from unruhsim import analytic, channels, cli, sweep
from unruhsim.channels import ChannelSpec
from unruhsim.entanglement import negativity
from unruhsim.state import unruh_state

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

COUPLINGS = (channels.MULTILOCAL, channels.GLOBAL)


def _spec(kind, coupling, p1=0.0, p2=0.0, p=0.0):
    return ChannelSpec(
        kind=kind, coupling=coupling, p1=p1, p2=p2,
        p=p if coupling == channels.GLOBAL else 0.0,
    )


def test_cptp_suite_runs_clean_and_fast():
    start = time.monotonic()
    p_values = [k / 10 for k in range(11)]
    for kind in channels.KINDS:
        for p in p_values:
            assert channels.completeness_defect(
                channels.qubit_channel(kind, p)
            ) <= 1e-12
            assert channels.completeness_defect(
                channels.qutrit_channel(kind, p, channels.CORRECTED)
            ) <= 1e-12
    for p in p_values:
        deph = channels.qutrit_channel(
            channels.DEPHASING, p, channels.AS_PRINTED
        )
        assert channels.completeness_defect(deph) == pytest.approx(
            2.0, abs=1e-12
        )
        tpf = channels.qutrit_channel(
            channels.BIT_TRIT_PHASE_FLIP, p, channels.AS_PRINTED
        )
        assert channels.completeness_defect(tpf) == pytest.approx(
            p / 3, abs=1e-12
        )
    assert time.monotonic() - start < 1.0


def test_evolved_states_keep_density_matrix_invariants():
    start = time.monotonic()
    grid = np.linspace(0.0, 1.0, 21)
    r_grid = np.linspace(0.0, math.pi / 4, 21)
    for kind in channels.KINDS:
        for coupling in COUPLINGS:
            for p in grid:
                for r in r_grid:
                    spec = _spec(kind, coupling, p1=float(p), p2=float(p),
                                 p=float(p))
                    m = channels.evolve(unruh_state(float(r)), spec).matrix
                    assert np.abs(m - m.conj().T).max() <= 1e-12
                    assert abs(np.trace(m) - 1.0) <= 1e-12
                    assert np.linalg.eigvalsh(m)[0] >= -1e-10
    assert time.monotonic() - start < 10.0


def test_zero_noise_negativity_closed_form():
    for r in np.linspace(0.0, math.pi / 4, 101):
        n = negativity(unruh_state(float(r))).negativity
        assert n == pytest.approx(math.cos(r) ** 2 / 2, abs=1e-10)
    assert negativity(unruh_state(0.0)).negativity == pytest.approx(
        0.5, abs=1e-10
    )
    assert negativity(unruh_state(math.pi / 4)).negativity == pytest.approx(
        0.25, abs=1e-10
    )


def test_multilocal_phase_flip_eigenvalue_formula():
    axis = np.linspace(0.0, 1.0, 21)
    r_axis = np.linspace(0.0, math.pi / 4, 21)
    for r in r_axis:
        rho = unruh_state(float(r))
        for p1 in axis:
            for p2 in axis:
                lam = analytic.phase_flip_lambda(
                    channels.MULTILOCAL, float(p1), float(p2), 0.0, float(r)
                )
                spec = _spec(channels.PHASE_FLIP, channels.MULTILOCAL,
                             p1=float(p1), p2=float(p2))
                spectrum = negativity(channels.evolve(rho, spec))
                if lam < -1e-10:
                    neg_count = sum(
                        1 for x in spectrum.eigenvalues if x < -1e-12
                    )
                    assert neg_count == 1
                assert spectrum.min_eigenvalue == pytest.approx(lam, abs=1e-9)


def test_verification_reports_match_committed_fixtures():
    # Regenerating every report must reproduce the committed fixtures
    # byte for byte; a recorded mismatch verdict is an expected outcome,
    # a changed report is a regression.
    import importlib.util

    script = os.path.join(
        os.path.dirname(__file__), "..", "scripts", "verify_formulas.py"
    )
    spec = importlib.util.spec_from_file_location("verify_formulas", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    assert mod.COMBOS  # all formula/coupling/mode combinations covered
    for kind, coupling, mode in mod.COMBOS:
        grid = mod.ML_GRID if coupling == channels.MULTILOCAL else mod.GLOBAL_GRID
        report = analytic.verify_against_numeric(
            kind,
            coupling,
            global_mode=mode or channels.PRODUCT,
            grid_points=grid,
        )
        path = os.path.join(FIXTURES, mod.report_name(kind, coupling, mode))
        with open(path) as fh:
            assert analytic.format_report(report) == fh.read()


def test_sudden_death_absent_for_dephasing():
    for coupling in COUPLINGS:
        spec = _spec(channels.DEPHASING, coupling)
        for r in (math.pi / 10, math.pi / 6, math.pi / 4):
            assert sweep.esd_threshold(spec, r) is None
            assert sweep._linked_negativity(spec, 0.99, r) > 0


def test_sudden_death_window_for_global_flip_channels():
    # Expected: both flip-style channels under global coupling lose
    # entanglement somewhere in p in (0.45, 0.85) at r = pi/4.
    for kind in (channels.PHASE_FLIP, channels.BIT_TRIT_FLIP):
        spec = _spec(kind, channels.GLOBAL)
        threshold = sweep.esd_threshold(spec, math.pi / 4)
        assert threshold is not None, f"no sudden death found for {kind}"
        assert 0.45 < threshold < 0.85, (
            f"{kind} threshold {threshold} outside expected window"
        )


def test_sudden_death_avoided_for_global_trit_phase_flip():
    spec = _spec(channels.BIT_TRIT_PHASE_FLIP, channels.GLOBAL)
    threshold = sweep.esd_threshold(spec, math.pi / 4)
    assert threshold is None, (
        f"expected no sudden death, found threshold {threshold}"
    )


def test_sudden_death_absent_under_multilocal_coupling():
    for kind in channels.KINDS:
        spec = _spec(kind, channels.MULTILOCAL)
        threshold = sweep.esd_threshold(spec, math.pi / 4)
        assert threshold is None, (
            f"expected no multilocal sudden death for {kind}, "
            f"found threshold {threshold}"
        )


def test_negativity_degrades_monotonically_with_acceleration():
    for kind in channels.KINDS:
        for coupling in COUPLINGS:
            for p in (0.3, 0.7):
                template = _spec(kind, coupling, p1=p, p2=p, p=p)
                s = sweep.SweepSpec(
                    channel=template, axis=sweep.AXIS_R, r_count=101
                )
                negs = [rec.negativity for rec in sweep.run_sweep(s)]
                assert (np.diff(negs) <= 1e-10).all()


def test_full_grid_performance_budget():
    specs = sweep.figure_sweeps("3", steps=101)
    start = time.monotonic()
    count = 0
    durations = []
    for s in specs:
        t0 = time.monotonic()
        records = sweep.run_sweep(s)
        durations.append((time.monotonic() - t0) / len(records))
        count += len(records)
    elapsed = time.monotonic() - start
    assert count == 4 * 101 * 101
    assert elapsed < 30.0
    assert float(np.median(durations)) < 1e-3


def test_repro_outputs_are_deterministic(tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    for out in (first, second):
        assert cli.main(["repro", "--figure", "1a", "--out-dir", str(out)]) == 0
    assert (first / "fig1a.csv").read_bytes() == (second / "fig1a.csv").read_bytes()
    assert (first / "fig1a.dat").read_bytes() == (second / "fig1a.dat").read_bytes()


def test_figure_3_bytes_are_pinned(tmp_path):
    # sha256 of both outputs as written by the per-point Kraus pipeline;
    # the batched evaluation must reproduce them bit for bit.
    assert cli.main(["repro", "--figure", "3", "--out-dir", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fig3.csv", "fig3.dat")
    }
    assert digests == {
        "fig3.csv":
            "f475cedb38b4063c5cd293e4a083ce04decfbf9ee7aa73897aeb30b64a162b81",
        "fig3.dat":
            "94053e2ea0fab6fe713009235f6cb268a5e93ca5f01b19f41b3416de102d02c6",
    }
