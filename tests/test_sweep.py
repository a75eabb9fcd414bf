import math
import os
import stat

import numpy as np
import pytest

from unruhsim import channels, sweep
from unruhsim.channels import ChannelSpec
from unruhsim.errors import IoFailure, OutOfRange

R_MAX = math.pi / 4


def _spec(kind, coupling=channels.MULTILOCAL, **kw):
    return ChannelSpec(kind=kind, coupling=coupling, **kw)


# --- run_sweep ----------------------------------------------------------------

def test_zero_noise_r_sweep_follows_closed_form():
    s = sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_R, r_count=51
    )
    records = sweep.run_sweep(s)
    assert len(records) == 51
    for rec in records:
        assert rec.negativity == pytest.approx(
            math.cos(rec.r) ** 2 / 2, abs=1e-10
        )
    rs = [rec.r for rec in records]
    assert rs == sorted(rs)
    assert rs[0] == 0.0 and rs[-1] == pytest.approx(R_MAX)


def test_p_sweep_links_parameters():
    s = sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, r=0.0, p_count=11
    )
    records = sweep.run_sweep(s)
    assert len(records) == 11
    for rec in records:
        assert rec.p1 == rec.p2
        assert rec.negativity == pytest.approx(
            0.5 * (1 - rec.p1) * (1 - rec.p2), abs=1e-10
        )


def test_grid_sweep_ordering_and_size():
    s = sweep.SweepSpec(
        channel=_spec(channels.DEPHASING),
        axis=sweep.AXIS_GRID,
        p_count=4,
        r_count=3,
    )
    records = sweep.run_sweep(s)
    assert len(records) == 12
    # outer p, inner r
    assert [rec.r for rec in records[:3]] == sorted({rec.r for rec in records})
    assert records[0].p1 == records[2].p1
    assert records[0].p1 != records[3].p1


def test_sweep_spec_validation():
    with pytest.raises(OutOfRange):
        sweep.SweepSpec(channel=_spec(channels.PHASE_FLIP), axis="q")
    with pytest.raises(OutOfRange):
        sweep.SweepSpec(channel=_spec(channels.PHASE_FLIP), p_count=0)


# --- monotonicity invariants ---------------------------------------------------

@pytest.mark.parametrize("kind", channels.KINDS)
@pytest.mark.parametrize("coupling", [channels.MULTILOCAL, channels.GLOBAL])
def test_negativity_nonincreasing_in_r(kind, coupling):
    for p in (0.3, 0.7):
        template = _spec(
            kind, coupling=coupling, p1=p, p2=p,
            p=p if coupling == channels.GLOBAL else 0.0,
        )
        s = sweep.SweepSpec(channel=template, axis=sweep.AXIS_R, r_count=41)
        negs = [rec.negativity for rec in sweep.run_sweep(s)]
        diffs = np.diff(negs)
        assert (diffs <= 1e-10).all()


@pytest.mark.parametrize("kind", channels.KINDS)
@pytest.mark.parametrize("coupling", [channels.MULTILOCAL, channels.GLOBAL])
def test_negativity_nonincreasing_in_p(kind, coupling):
    for r in (math.pi / 10, math.pi / 6, math.pi / 4):
        template = _spec(kind, coupling=coupling)
        s = sweep.SweepSpec(
            channel=template, axis=sweep.AXIS_P, r=r, p_count=41
        )
        negs = [rec.negativity for rec in sweep.run_sweep(s)]
        diffs = np.diff(negs)
        assert (diffs <= 1e-10).all()


# --- sudden-death thresholds ----------------------------------------------------

# Regression constants measured from this pipeline (reversed level order,
# corrected variants, product collective mode, r = pi/4, linked parameters).
ESD_EXPECTED = {
    (channels.BIT_TRIT_FLIP, channels.MULTILOCAL): 0.5301305228732293,
    (channels.BIT_TRIT_PHASE_FLIP, channels.MULTILOCAL): 0.4005511997380659,
    (channels.BIT_TRIT_FLIP, channels.GLOBAL): 0.3145297401587938,
    (channels.BIT_TRIT_PHASE_FLIP, channels.GLOBAL): 0.23270840775988635,
}


@pytest.mark.parametrize("kind,coupling", sorted(ESD_EXPECTED))
def test_esd_thresholds_frozen(kind, coupling):
    threshold = sweep.esd_threshold(_spec(kind, coupling=coupling), math.pi / 4)
    assert threshold == pytest.approx(ESD_EXPECTED[(kind, coupling)], abs=2e-6)


@pytest.mark.parametrize("kind", [channels.PHASE_FLIP, channels.DEPHASING])
@pytest.mark.parametrize("coupling", [channels.MULTILOCAL, channels.GLOBAL])
def test_no_sudden_death_for_phase_channels(kind, coupling):
    assert sweep.esd_threshold(_spec(kind, coupling=coupling), math.pi / 4) is None


def test_esd_threshold_is_a_sign_crossing():
    spec = _spec(channels.BIT_TRIT_FLIP)
    t = sweep.esd_threshold(spec, math.pi / 4, p_tol=1e-7)
    below = sweep._linked_negativity(spec, t - 1e-5, math.pi / 4)
    above = sweep._linked_negativity(spec, t + 1e-5, math.pi / 4)
    assert below > sweep.ESD_NEGATIVITY_FLOOR
    assert above <= sweep.ESD_NEGATIVITY_FLOOR


def test_esd_tolerance_controls_bracket():
    spec = _spec(channels.BIT_TRIT_FLIP)
    coarse = sweep.esd_threshold(spec, math.pi / 4, p_tol=1e-3)
    fine = sweep.esd_threshold(spec, math.pi / 4, p_tol=1e-7)
    assert abs(coarse - fine) <= 2e-3


def test_esd_rejects_bad_tolerance():
    for p_tol in (0.0, math.nan, math.inf):
        with pytest.raises(OutOfRange):
            sweep.esd_threshold(_spec(channels.PHASE_FLIP), 0.1, p_tol=p_tol)


def test_esd_tolerance_below_one_ulp_terminates():
    # The bisection stops once no float lies strictly inside the bracket.
    key = (channels.BIT_TRIT_FLIP, channels.MULTILOCAL)
    t = sweep.esd_threshold(_spec(*key), math.pi / 4, p_tol=1e-300)
    assert t == pytest.approx(ESD_EXPECTED[key], abs=2e-6)


# --- serialization ----------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    s = sweep.SweepSpec(
        channel=_spec(channels.BIT_TRIT_FLIP), axis=sweep.AXIS_P, r=0.4,
        p_count=101,
    )
    records = sweep.run_sweep(s)
    dest = tmp_path / "out.csv"
    assert sweep.write_csv(records, str(dest)) == 101
    text = dest.read_text()
    lines = text.splitlines()
    assert len(lines) == 102
    assert lines[0] == sweep.CSV_HEADER
    assert "\r" not in text and text.endswith("\n")
    for line, rec in zip(lines[1:], records):
        fields = line.split(",")
        assert fields[:3] == [rec.kind, rec.coupling, rec.global_mode]
        assert [float(x) for x in fields[3:]] == pytest.approx(
            [rec.p1, rec.p2, rec.p, rec.r, rec.negativity, rec.min_pt_eigenvalue],
            abs=1e-11)


def test_written_files_get_the_mode_of_a_plain_open(tmp_path):
    records = sweep.run_sweep(sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, p_count=2))
    old = os.umask(0o022)
    try:
        sweep.write_csv(records, str(tmp_path / "out.csv"))
        sweep.write_plot_data(records, str(tmp_path / "out.dat"))
    finally:
        os.umask(old)
    for name in ("out.csv", "out.dat"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644


def test_empty_record_list_rejected(tmp_path):
    with pytest.raises(OutOfRange):
        sweep.write_csv([], str(tmp_path / "a.csv"))
    with pytest.raises(OutOfRange):
        sweep.write_plot_data([], str(tmp_path / "a.dat"))


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    s = sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, p_count=3
    )
    sweep.write_csv(sweep.run_sweep(s), str(tmp_path / "a.csv"))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_plot_data_blocks(tmp_path):
    records = []
    for kind in channels.KINDS:
        s = sweep.SweepSpec(
            channel=_spec(kind), axis=sweep.AXIS_P, r=0.2, p_count=5
        )
        records.extend(sweep.run_sweep(s))
    dest = tmp_path / "fig.dat"
    assert sweep.write_plot_data(records, str(dest)) == 4
    text = dest.read_text()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 4
    for kind, block in zip(channels.KINDS, blocks):
        assert block.startswith(f"# {kind} multilocal")
        assert len(block.strip().splitlines()) == 6  # label + 5 points


def test_writers_format_each_field_as_twelve_significant_digits(tmp_path):
    values = [-0.0, 5e-324, 1e-13, 0.1 + 0.2, math.pi / 4]
    groups = [(channels.PHASE_FLIP, channels.MULTILOCAL, ""),
              (channels.DEPHASING, channels.GLOBAL, channels.PRODUCT)]
    records = [
        sweep.SweepRecord(*group, *(values[(i + j) % 5] for j in range(6)))
        for group in groups for i in range(5)
    ]
    numbers = lambda rec: [f"{x:.12g}" for x in (
        rec.p1, rec.p2, rec.p, rec.r, rec.negativity, rec.min_pt_eigenvalue)]
    csv_rows = [",".join([rec.kind, rec.coupling, rec.global_mode, *numbers(rec)])
                for rec in records]
    blocks = [
        f"# {kind} {coupling}" + (f" {gmode}" if gmode else "") + "\n"
        + "\n".join(" ".join(numbers(rec)) for rec in records[5 * g:5 * g + 5])
        + "\n"
        for g, (kind, coupling, gmode) in enumerate(groups)
    ]
    sweep.write_csv(records, str(tmp_path / "a.csv"))
    sweep.write_plot_data(records, str(tmp_path / "a.dat"))
    assert (tmp_path / "a.csv").read_bytes().decode() == (
        "\n".join([sweep.CSV_HEADER, *csv_rows]) + "\n")
    assert (tmp_path / "a.dat").read_bytes().decode() == "\n".join(blocks)
    assert "-0 4.94065645841e-324 1e-13 0.3 0.785398163397" in blocks[0]


def test_write_failure_raises_io(tmp_path):
    s = sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, p_count=2
    )
    records = sweep.run_sweep(s)
    with pytest.raises(IoFailure):
        sweep.write_csv(records, str(tmp_path / "no_such_dir" / "a.csv"))


# --- figure presets ---------------------------------------------------------------

def test_figure_presets_cover_channels():
    for fig in sweep.FIGURES:
        specs = sweep.figure_sweeps(fig, steps=5)
        assert [s.channel.kind for s in specs] == list(channels.KINDS)


def test_figure_axis_assignment():
    assert all(s.axis == sweep.AXIS_P for s in sweep.figure_sweeps("1a", 3))
    assert all(s.axis == sweep.AXIS_R for s in sweep.figure_sweeps("1c", 3))
    assert all(s.axis == sweep.AXIS_GRID for s in sweep.figure_sweeps("3", 3))
    assert all(
        s.channel.coupling == channels.GLOBAL
        for s in sweep.figure_sweeps("2b", 3)
    )


def test_figure_fixed_parameters():
    for s in sweep.figure_sweeps("1d", 3):
        assert s.channel.p1 == 0.7 and s.channel.p2 == 0.7
    for s in sweep.figure_sweeps("2a", 3):
        assert s.r == pytest.approx(math.pi / 6)


def test_unknown_figure_rejected():
    with pytest.raises(OutOfRange):
        sweep.figure_sweeps("9z")
