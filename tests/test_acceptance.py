"""End-to-end acceptance gate.

One test per required behavior.  Three of the qualitative sudden-death
expectations (global flip-channel threshold window, global trit-phase-flip
immunity, multilocal immunity) are known not to hold for any
trace-preserving reading of the channel definitions; those tests are kept
faithful to the stated expectation and left failing rather than weakened.
See notes in the project ledger for the analysis.
"""

import hashlib
import importlib
import math
import os
import pkgutil
import re
import time

import numpy as np
import pytest

import unruhsim
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
                    m = channels.evolve(unruh_state(float(r)), spec)
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


def test_verify_out_dir_reproduces_committed_fixtures(tmp_path, capsys):
    # Regenerating every report must reproduce the committed fixtures
    # byte for byte; a recorded mismatch verdict is an expected outcome,
    # a changed report is a regression.
    assert cli.main(["verify", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    names = sorted(os.listdir(FIXTURES))
    assert len(names) == 6
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 6


def test_verify_out_dir_failed_write_keeps_previous_report(
    tmp_path, monkeypatch, capsys
):
    previous = tmp_path / "verify_phase_flip_multilocal.txt"  # the first report
    previous.write_text("previous\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    assert cli.main(["verify", "--out-dir", str(tmp_path)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o failure: ")
    assert previous.read_text() == "previous\n"
    assert os.listdir(tmp_path) == [previous.name]


def test_verify_out_dir_under_a_file_exits_three(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "sub"
    assert cli.main(["verify", "--out-dir", str(out_dir)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o failure: ")


def test_verify_out_dir_with_channel_exits_one_and_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    argv = ["verify", "--out-dir", str(out_dir), "--channel", "dephasing"]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out_dir.exists()


def test_readme_python_example_runs(capsys):
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, readme, "exec"), {})
    assert float(capsys.readouterr().out) > 0


def test_readme_names_of_the_package_exist():
    # Each backticked `module.name` whose module is one of unruhsim's, with
    # or without the `unruhsim.` prefix, must name an attribute: a rename
    # that misses the README fails here.
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    modules = {m.name for m in pkgutil.iter_modules(unruhsim.__path__)}
    names = set()
    for ref in re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", text):
        parts = ref.split(".")
        if parts[0] == "unruhsim":
            parts = parts[1:]
            assert parts[0] in modules, f"README names missing {ref}"
        elif parts[0] not in modules:
            continue
        names.add(ref)
        obj = importlib.import_module(f"unruhsim.{parts[0]}")
        for part in parts[1:]:
            assert hasattr(obj, part), f"README names missing {ref}"
            obj = getattr(obj, part)
    assert len(names) >= 9


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
                    channel=template, axis=sweep.AXIS_R, steps=101
                )
                negs = sweep.run_sweep(s).negativity[0]
                assert (np.diff(negs) <= 1e-10).all()


def test_full_grid_performance_budget():
    specs = sweep.figure_sweeps("3")
    start = time.monotonic()
    count = 0
    durations = []
    for s in specs:
        t0 = time.monotonic()
        points = sweep.run_sweep(s).negativity.size
        durations.append((time.monotonic() - t0) / points)
        count += points
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


# sha256 of both outputs of every preset as written by the per-point Kraus
# pipeline and per-point record writers; the batched evaluation and the
# per-sweep writers must reproduce them bit for bit.
FIGURE_SHA256 = {
    "1a": ("875941335741954e9e0c348578b1b53e91bbf1a03ced8e8ced52c6c0566cda0b",
           "7a220d405fd8dc240c853bc5782845766d3ad1335f4a470e6943f6cf44892872"),
    "1b": ("850a064efad7a601b88c4c4e205aff11bf0c7490e14ef5cb9607dcd4963c2f0d",
           "744b4aee5995fb8c3c7794dea40aa06a208e61cbc0e04694caaaee71475f8d7f"),
    "1c": ("e19f1d97562007f08f487042d07c88b59b66723cf38b0ada1e3a2f700365a9bd",
           "ff8cbbebbeeffb46ba0bdfe25af97ebf8796e1dbe0742556a96a87f05ec2f0cc"),
    "1d": ("910ba7a92132783bc47d791d5f2f11ed8129ee4b2c8dbf77958c7fd964c867aa",
           "f42412b539509b1affc4f4fe9e3012b2c252386fabd410abe1c880124cd587fb"),
    "2a": ("e9a9c8117ae964371755fe884d1bafe6530bdff2774c0f75481a4a86a9a61954",
           "183012bdf4828c67df60602a2aa0d3b528e2d8f08f3cc56ea144baec095f221e"),
    "2b": ("3e115c18b0552de0aab116ea9e36cdb7a7f2a9d32f230b73875c2d9a2b2b2417",
           "7369c3fe043e05f8437650b8fac5b11f3e49a4e72d9edf6e65f11ae2fe2eee13"),
    "2c": ("987a18bad0766b9667fe2cd4e47db1531d0cc8b4cc4eb0ca608d8c5eb9ba6898",
           "cb02d4aab77527c4f98808227e1dc588897d84498bcf8a06c7db1c2061059062"),
    "2d": ("cb4b7aeffbc61bc3f028f4f3ccb0d1290d079aa5f8c79f64a395c32e222d6a46",
           "0847867afa988e54b2a30ee917eff4ce53cf24666b4d4588e0d07e996737f48c"),
    "3": ("f475cedb38b4063c5cd293e4a083ce04decfbf9ee7aa73897aeb30b64a162b81",
          "94053e2ea0fab6fe713009235f6cb268a5e93ca5f01b19f41b3416de102d02c6"),
}


@pytest.mark.parametrize("figure", sweep.FIGURES)
def test_figure_bytes_are_pinned(tmp_path, figure):
    assert cli.main(["repro", "--figure", figure,
                     "--out-dir", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"fig{figure}{ext}").read_bytes()).hexdigest()
        for ext in (".csv", ".dat")
    )
    assert digests == FIGURE_SHA256[figure]
