import collections
import dataclasses
import errno
import math
import os
import stat
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from unruhsim import analytic, channels, cli, state, sweep
from unruhsim.channels import ChannelSpec
from unruhsim.errors import DimensionMismatch, IoFailure, NotHermitian, OutOfRange

from esd_roots import DPS, esd_root
from spec_rows import spec_axes, spec_rows

R_MAX = math.pi / 4


def _spec(kind, coupling=channels.MULTILOCAL, **kw):
    return ChannelSpec(kind=kind, coupling=coupling, **kw)


# --- run_sweep ----------------------------------------------------------------

def test_zero_noise_r_sweep_follows_closed_form():
    s = sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_R, steps=51
    )
    res = sweep.run_sweep(s)
    channel, params = spec_rows([s.channel])
    assert res.channel == channel and res.params.tolist() == params.tolist()
    assert res.negativity.shape == res.min_pt_eigenvalue.shape == (1, 51)
    for r, n in zip(res.r, res.negativity[0]):
        assert n == pytest.approx(math.cos(r) ** 2 / 2, abs=1e-10)
    rs = res.r.tolist()
    assert rs == sorted(rs)
    assert rs[0] == 0.0 and rs[-1] == pytest.approx(R_MAX)


def test_p_sweep_links_parameters():
    s = sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, r=0.0, steps=11
    )
    res = sweep.run_sweep(s)
    assert res.r.tolist() == [0.0]
    assert res.negativity.shape == (11, 1)
    for (p1, p2, _), (n,) in zip(res.params.tolist(), res.negativity):
        assert p1 == p2
        assert n == pytest.approx(0.5 * (1 - p1) * (1 - p2), abs=1e-10)


def test_grid_sweep_ordering_and_size():
    s = sweep.SweepSpec(
        channel=_spec(channels.DEPHASING),
        axis=sweep.AXIS_GRID,
        steps=4,
    )
    res = sweep.run_sweep(s)
    assert res.negativity.shape == res.min_pt_eigenvalue.shape == (4, 4)
    # outer p (rows), inner r (columns)
    assert res.params[:, 0].tolist() == np.linspace(0, 1, 4).tolist()
    assert res.r.tolist() == np.linspace(0, R_MAX, 4).tolist()
    assert len(set(res.params[:, 0].tolist())) == 4


@pytest.mark.parametrize("coupling", [channels.MULTILOCAL, channels.GLOBAL])
def test_sweep_rows_are_linked_on_p_and_the_templates_own_on_r(coupling):
    # One linking rule: the rows run_sweep evaluates and writes are, bit for
    # bit, those of the specs an ESD probe or a figure preset builds.
    template = _spec(channels.DEPHASING, coupling, p1=0.2, p2=0.4, p=0.6)
    res = sweep.run_sweep(sweep.SweepSpec(template, sweep.AXIS_P, steps=11))
    linked = [sweep._linked(template, p) for p in np.linspace(0, 1, 11).tolist()]
    channel, params = spec_rows(linked)
    assert res.channel == template and channel == linked[0]
    assert res.params.dtype == params.dtype and res.params.tobytes() == params.tobytes()
    # An r sweep links nothing: its one row is the template's own.
    res = sweep.run_sweep(sweep.SweepSpec(template, sweep.AXIS_R, steps=3))
    assert res.params.tolist() == [[0.2, 0.4, 0.6]]


@pytest.mark.parametrize("sweep_spec", [
    sweep.figure_sweeps("3")[3],
    sweep.SweepSpec(_spec(channels.BIT_TRIT_FLIP), sweep.AXIS_P, steps=101),
], ids=["figure-3", "p-101"])
def test_run_sweep_builds_no_channel_spec(monkeypatch, sweep_spec):
    built = []
    post_init = ChannelSpec.__post_init__
    monkeypatch.setattr(ChannelSpec, "__post_init__",
                        lambda spec: built.append(spec) or post_init(spec))
    res = sweep.run_sweep(sweep_spec)
    assert built == []
    assert res.negativity.shape[0] == 101


def test_sweep_spec_validation():
    with pytest.raises(OutOfRange):
        sweep.SweepSpec(channel=_spec(channels.PHASE_FLIP), axis="q")
    with pytest.raises(OutOfRange, match="grids must be nonempty"):
        sweep.SweepSpec(channel=_spec(channels.PHASE_FLIP), steps=0)


@pytest.mark.parametrize("axis", sweep.AXES)
@pytest.mark.parametrize("r", [math.nan, 5.0, -0.1])
def test_sweep_spec_checks_its_fixed_r_on_every_axis(axis, r):
    with pytest.raises(OutOfRange) as err:
        sweep.SweepSpec(channel=_spec(channels.PHASE_FLIP), axis=axis, r=r)
    assert str(err.value) == f"acceleration parameter r={r!r} outside [0, pi/4]"


def test_evaluate_rejects_an_empty_r_axis():
    with pytest.raises(OutOfRange):
        sweep.evaluate(*spec_axes([_spec(channels.PHASE_FLIP)]), [])


def test_evaluate_rejects_empty_parameter_rows_as_evolve_does():
    with pytest.raises(OutOfRange, match="^evolve takes one or more parameter rows$"):
        sweep.evaluate(_spec(channels.PHASE_FLIP), tuple(np.empty((0, 3)).T), [0.1])


_P = np.array([0.0, 0.5, 1.0])
_MESH = (_P[:, None, None], np.array([0.25, 0.75])[:, None], np.array([0.1, 0.2]))


@pytest.mark.parametrize("coupling, axes, want", [
    (channels.GLOBAL, (0.1, 0.2, 0.3), [[0.1, 0.2, 0.3]]),
    (channels.GLOBAL, sweep._linked_row(_spec(channels.DEPHASING, channels.GLOBAL), _P),
     [[p, p, p] for p in _P.tolist()]),
    (channels.MULTILOCAL, sweep._linked_row(_spec(channels.DEPHASING), _P),
     [[p, p, 0.0] for p in _P.tolist()]),
    (channels.GLOBAL, _MESH, [[a, b, c] for a in _P.tolist() for b in (0.25, 0.75)
                              for c in (0.1, 0.2)]),
], ids=["0-d", "linked-global", "linked-multilocal", "mesh"])
def test_evaluate_rows_are_the_c_order_broadcast_of_its_axes(coupling, axes, want):
    # Each row is evaluated as the spec at that row alone would be, bit for bit.
    template = _spec(channels.BIT_TRIT_FLIP, coupling)
    r = [0.0, 0.3]
    params, min_eig, neg = sweep.evaluate(template, axes, r)
    assert params.dtype == float and params.tolist() == want
    assert min_eig.shape == neg.shape == (len(want), len(r))
    for row, eig_row, neg_row in zip(want, min_eig, neg):
        spec = dataclasses.replace(template, p1=row[0], p2=row[1], p=row[2])
        alone = sweep.evaluate(spec, None, r)
        assert alone[0] is None
        assert (eig_row.tobytes(), neg_row.tobytes()) == (alone[1][0].tobytes(),
                                                          alone[2][0].tobytes())


def test_evaluate_refuses_an_empty_axis_as_evolve_does():
    with pytest.raises(OutOfRange, match="^evolve takes one or more parameter rows$"):
        sweep.evaluate(_spec(channels.PHASE_FLIP), (np.array([]), 0.2, 0.3), [0.1])


@pytest.mark.parametrize("points", [10**5, 10**7], ids=["no-memory", "past-int64"])
def test_evaluate_refuses_an_oversized_mesh_before_its_rows_or_states(
    monkeypatch, points
):
    # Stride-0 axes: the mesh's (points**3, 2) result arrays are refused by
    # the allocator (MemoryError) or by numpy before it tries (ValueError);
    # 10**21 rows are more than numpy's own broadcast of the axes can count.
    def none_of(what):
        def refuse(*args, **kwargs):
            raise AssertionError(f"built {what}")
        return refuse

    axis = np.broadcast_to(0.5, points)
    for name in ("broadcast_arrays", "stack"):
        monkeypatch.setattr(np, name, none_of("rows"))
    monkeypatch.setattr(sweep, "unruh_state", none_of("states"))
    with pytest.raises(OutOfRange) as err:
        sweep.evaluate(_spec(channels.DEPHASING, channels.GLOBAL),
                       (axis[:, None, None], axis[:, None], axis), [0.0, 0.3])
    assert str(err.value) == f"a grid of {2 * points**3} points is too large"


def test_evaluate_checks_the_raw_rows_of_incomplete_specs(monkeypatch):
    # As printed, the trit phase flip set is not trace preserving at p > 0,
    # so its rows come back raw, never validated.
    raw = [_spec(channels.BIT_TRIT_PHASE_FLIP, p1=p, p2=p,
                 variant=channels.AS_PRINTED) for p in (0.3, 0.6)]
    _, _, neg = sweep.evaluate(*spec_axes(raw), [0.3], allow_incomplete=True)
    assert neg.shape == (2, 1)
    bent = np.array(state.unruh_state([0.3]))  # the r axis's (1, 6, 6) stack
    bent[0, 0, 4] += 2e-3
    monkeypatch.setattr(sweep, "unruh_state", lambda rs: bent)
    with pytest.raises(NotHermitian):
        sweep.evaluate(*spec_axes(raw), [0.3], allow_incomplete=True)


@pytest.mark.parametrize("n", [1, 2, 101, 300])
def test_an_r_axis_is_built_and_validated_as_one_stack(monkeypatch, n):
    built, validated = [], []
    build, validate = sweep.unruh_state, state.validate_density
    monkeypatch.setattr(sweep, "unruh_state",
                        lambda rs: built.append(len(rs)) or build(rs))
    # state's own binding: the states' validations, not channels' of the rows
    monkeypatch.setattr(state, "validate_density",
                        lambda m: validated.append(np.shape(m)) or validate(m))
    specs = [_spec(channels.BIT_TRIT_PHASE_FLIP, channels.GLOBAL, p1=p, p2=p, p=p)
             for p in (0.2, 0.4)]
    sweep.evaluate(*spec_axes(specs), np.linspace(0.0, R_MAX, n))
    assert built == [n] and validated == [(n, 6, 6)]


def _figure_3_and_a_verify_grid():
    """(spec, params, r axis, allow_incomplete) of each figure 3 sweep at 21
    steps, then of the dephasing global correlated verify grid."""
    for figure_sweep in sweep.figure_sweeps("3"):
        c = figure_sweep.channel
        p = sweep._axis(1.0, 21)
        params = np.stack(np.broadcast_arrays(*sweep._linked_row(c, p)), axis=-1)
        yield c, params, sweep._axis(R_MAX, 21), False
    axis = sweep._axis(1.0, 11)
    params = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    spec = ChannelSpec(channels.DEPHASING, channels.GLOBAL,
                       global_mode=channels.CORRELATED)
    yield spec, params, sweep._axis(R_MAX, 11), True


def test_chunking_never_changes_a_bit(monkeypatch):
    bound = sweep._CHUNK_MATRICES
    for spec, params, r, raw in _figure_3_and_a_verify_grid():
        results = []
        # one row per chunk, the old bound, the bound, the whole grid at once
        for matrices in (len(r), 128, bound, len(params) * len(r)):
            monkeypatch.setattr(sweep, "_CHUNK_MATRICES", matrices)
            results.append(b"".join(a.tobytes() for a in sweep.evaluate(
                spec, tuple(params.T), r, allow_incomplete=raw)))
        assert results[1:] == results[:-1], spec


@pytest.mark.parametrize("figure_sweep", sweep.figure_sweeps("3"),
                         ids=lambda s: s.channel.kind)
def test_a_figure_3_spec_takes_one_eigensolver_call_its_pt_spectra(
    monkeypatch, figure_sweep
):
    # The states and the evolved rows are certified PSD by Gershgorin's bound.
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: shapes.append(np.shape(a)) or eigvalsh(a))
    spec = sweep._linked(figure_sweep.channel, 0.37)
    _, min_eig, _ = sweep.evaluate(*spec_axes([spec]), np.linspace(0.0, R_MAX, 101))
    assert shapes == [(1, 101, 6, 6)]
    assert min_eig.shape == (1, 101)


def test_figure_3_and_verify_stacks_are_all_certified_without_the_eigensolver(
    monkeypatch
):
    # Every validated stack passes Gershgorin's bound, so a change that stops
    # certifying them fails here rather than slowing down.
    callers = collections.Counter()

    def traced(fn):
        def counted(*args, **kwargs):
            callers[fn.__name__, sys._getframe(1).f_code.co_name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eigvalsh", traced(np.linalg.eigvalsh))
    monkeypatch.setattr(state, "hermiticity_defect", traced(state.hermiticity_defect))
    for figure_sweep in sweep.figure_sweeps("3"):
        sweep.run_sweep(dataclasses.replace(figure_sweep, steps=21))
    for kind, coupling, mode in cli._REPORTS:
        analytic.verify_against_numeric(kind, coupling, grid_points=5,
                                        global_mode=mode or channels.PRODUCT)
    assert callers["hermiticity_defect", "validate_density"] > 0
    assert callers["eigvalsh", "pt_spectra"] > 0
    assert callers["eigvalsh", "validate_density"] == 0


@pytest.mark.parametrize("coupling", [channels.MULTILOCAL, channels.GLOBAL])
@pytest.mark.parametrize("kind", channels.KINDS)
def test_each_esd_probe_builds_one_set_and_checks_each_stack_once(
    monkeypatch, kind, coupling
):
    counts = collections.Counter()

    def count(module, name, key):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # Each structure's plan is read off one set on first use.
    channels._plan(kind, channels.PRODUCT, channels.CORRECTED,
                   channels.DEFAULT_LEVEL_ORDER)
    count(sweep, "evaluate", "probes")
    count(channels, "_stage_sets", "stages built")
    count(channels, "completeness_defect", "matmul defects")
    for module in (state, channels):
        count(module, "validate_density", "stacks validated")
    count(state, "hermiticity_defect", "hermiticity defects")
    sweep.esd_threshold(_spec(kind, coupling), math.pi / 4, p_tol=1e-2)
    # One stage built, one initial state and one evolved row per probe, each
    # validated.  A gather set takes its defect from its factors, without
    # the matmul.
    probes = counts["probes"]
    gather = kind != channels.BIT_TRIT_PHASE_FLIP
    assert probes >= 2 and counts["stages built"] == probes
    assert counts == collections.Counter({
        "probes": probes, "stages built": probes,
        "matmul defects": 0 if gather else probes,
        "stacks validated": 2 * probes, "hermiticity defects": 2 * probes})


# --- monotonicity invariants ---------------------------------------------------

@pytest.mark.parametrize("kind", channels.KINDS)
@pytest.mark.parametrize("coupling", [channels.MULTILOCAL, channels.GLOBAL])
def test_negativity_nonincreasing_in_r(kind, coupling):
    for p in (0.3, 0.7):
        template = _spec(
            kind, coupling=coupling, p1=p, p2=p,
            p=p if coupling == channels.GLOBAL else 0.0,
        )
        s = sweep.SweepSpec(channel=template, axis=sweep.AXIS_R, steps=41)
        negs = sweep.run_sweep(s).negativity[0]
        diffs = np.diff(negs)
        assert (diffs <= 1e-10).all()


@pytest.mark.parametrize("kind", channels.KINDS)
@pytest.mark.parametrize("coupling", [channels.MULTILOCAL, channels.GLOBAL])
def test_negativity_nonincreasing_in_p(kind, coupling):
    for r in (math.pi / 10, math.pi / 6, math.pi / 4):
        template = _spec(kind, coupling=coupling)
        s = sweep.SweepSpec(
            channel=template, axis=sweep.AXIS_P, r=r, steps=41
        )
        negs = sweep.run_sweep(s).negativity[:, 0]
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


# The 50-digit roots of det PT(p) at pi/4 (esd_roots.py), to the 15 digits
# README prints.
ESD_ROOTS = {
    (channels.BIT_TRIT_FLIP, channels.MULTILOCAL): "0.530130522876042",
    (channels.BIT_TRIT_PHASE_FLIP, channels.MULTILOCAL): "0.400551199740082",
    (channels.BIT_TRIT_FLIP, channels.GLOBAL): "0.314529740160846",
    (channels.BIT_TRIT_PHASE_FLIP, channels.GLOBAL): "0.232708407761286",
}


@pytest.mark.parametrize("kind,coupling", sorted(ESD_EXPECTED))
def test_esd_constants_and_thresholds_sit_at_the_exact_roots(kind, coupling):
    root = esd_root(kind, coupling)
    threshold = sweep.esd_threshold(_spec(kind, coupling=coupling), math.pi / 4)
    with mp.workdps(DPS):
        assert abs(root - mp.mpf(ESD_ROOTS[(kind, coupling)])) <= 5e-16
        # Negativity reaches the 1e-12 floor just before the root.
        assert 0 <= root - ESD_EXPECTED[(kind, coupling)] <= 1e-11
        assert -1e-11 <= threshold - root <= 1e-6


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


def test_esd_scan_starts_at_the_first_step(monkeypatch):
    # At p = 0 every reading is the identity channel or fails at every p.
    probes, negativity = [], sweep._linked_negativity

    def spy(channel, p, r):
        probes.append(p)
        return negativity(channel, p, r)

    monkeypatch.setattr(sweep, "_linked_negativity", spy)
    key = (channels.BIT_TRIT_FLIP, channels.GLOBAL)
    t = sweep.esd_threshold(_spec(*key), math.pi / 4)
    assert t == pytest.approx(ESD_EXPECTED[key], abs=2e-6)
    assert probes[0] == 0.01 and 0.0 not in probes


# --- serialization ----------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    s = sweep.SweepSpec(
        channel=_spec(channels.BIT_TRIT_FLIP), axis=sweep.AXIS_P, r=0.4,
        steps=101,
    )
    res = sweep.run_sweep(s)
    dest = tmp_path / "out.csv"
    assert sweep.write_csv([res], str(dest)) == 101
    text = dest.read_text()
    lines = text.splitlines()
    assert len(lines) == 102
    assert lines[0] == sweep.CSV_HEADER
    assert "\r" not in text and text.endswith("\n")
    for line, (p1, p2, _), (n,), (e,) in zip(lines[1:], res.params.tolist(),
                                             res.negativity, res.min_pt_eigenvalue):
        fields = line.split(",")
        assert fields[:3] == [res.channel.kind, res.channel.coupling, ""]
        assert [float(x) for x in fields[3:]] == pytest.approx(
            [p1, p2, 0.0, 0.4, n, e], abs=1e-11)


def test_written_files_get_the_mode_of_a_plain_open(tmp_path):
    results = [sweep.run_sweep(sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, steps=2))]
    old = os.umask(0o022)
    try:
        sweep.write_csv(results, str(tmp_path / "out.csv"))
        sweep.write_plot_data(results, str(tmp_path / "out.dat"))
    finally:
        os.umask(old)
    for name in ("out.csv", "out.dat"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644


def test_writers_leave_the_process_umask_alone(tmp_path, monkeypatch):
    # The kernel applies the umask when the temp file is created; reading it
    # with os.umask would set it process-wide, for every thread, meanwhile.
    results = [sweep.run_sweep(sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, steps=2))]

    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    assert sweep.write_csv(results, str(tmp_path / "out.csv")) == 2
    assert sweep.write_plot_data(results, str(tmp_path / "out.dat")) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.dat"]


@pytest.mark.parametrize("destination", [".", ""])
def test_the_temp_file_of_a_bare_destination_lies_in_the_working_directory(
        tmp_path, monkeypatch, destination):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    results = [sweep.run_sweep(sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, steps=2))]
    sources = []
    replace = os.replace

    def recording_replace(src, dst):
        sources.append(src)
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    with pytest.raises(IoFailure):
        sweep.write_csv(results, destination)
    assert len(sources) == 1
    assert os.path.samefile(os.path.dirname(os.path.abspath(sources[0])), work)
    assert list(work.glob("*.tmp")) == list(tmp_path.glob("*.tmp")) == []


_ONE_ROW = spec_rows([_spec(channels.PHASE_FLIP)])


@pytest.mark.parametrize("params, negativity_shape, eigenvalue_shape", [
    (_ONE_ROW[1], (2, 3), (1, 2)), (_ONE_ROW[1], (1, 2), (2, 1)),
    (_ONE_ROW[1], (2,), (2,)),
    # Not (n, 3) rows, with arrays of as many rows as the first axis holds.
    (np.zeros(3), (3, 2), (3, 2)), (np.zeros((1, 2)), (1, 2), (1, 2)),
    (np.zeros((1, 3, 1)), (1, 2), (1, 2)), (np.zeros(()), (2,), (2,)),
], ids=["more-rows", "fewer-columns", "one-axis", "params-3", "params-1x2",
        "params-1x3x1", "params-0d"])
def test_result_arrays_must_match_params_and_r(params, negativity_shape,
                                               eigenvalue_shape):
    # write_csv counts rows by shape, so a result cannot hold more or fewer,
    # and the writers unpack (p1, p2, p) from each row: a malformed result is
    # refused here, not reported as a write failure.
    with pytest.raises(DimensionMismatch):
        sweep.SweepResult(_ONE_ROW[0], params, np.array([0.0, 0.1]),
                          np.zeros(negativity_shape), np.zeros(eigenvalue_shape))


def test_empty_result_list_rejected(tmp_path):
    empty = sweep.SweepResult(_spec(channels.PHASE_FLIP), np.empty((0, 3)),
                              np.array([0.0]), np.empty((0, 1)), np.empty((0, 1)))
    for results in ([], [empty]):
        with pytest.raises(OutOfRange):
            sweep.write_csv(results, str(tmp_path / "a.csv"))
        with pytest.raises(OutOfRange):
            sweep.write_plot_data(results, str(tmp_path / "a.dat"))
    assert list(tmp_path.iterdir()) == []


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    s = sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, steps=3
    )
    sweep.write_csv([sweep.run_sweep(s)], str(tmp_path / "a.csv"))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_plot_data_blocks(tmp_path):
    results = [
        sweep.run_sweep(sweep.SweepSpec(
            channel=_spec(kind), axis=sweep.AXIS_P, r=0.2, steps=5))
        for kind in channels.KINDS
    ]
    dest = tmp_path / "fig.dat"
    assert sweep.write_plot_data(results, str(dest)) == 4
    text = dest.read_text()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 4
    for kind, block in zip(channels.KINDS, blocks):
        assert block.startswith(f"# {kind} multilocal")
        assert len(block.strip().splitlines()) == 6  # label + 5 points


def test_writers_format_each_field_as_twelve_significant_digits(tmp_path):
    values = [-0.0, 5e-324, 1e-13, 0.1 + 0.2, math.pi / 4]
    v = lambda k: values[k % 5]
    groups = [(channels.PHASE_FLIP, channels.MULTILOCAL, ""),
              (channels.DEPHASING, channels.GLOBAL, channels.PRODUCT),
              (channels.BIT_TRIT_FLIP, channels.GLOBAL, channels.CORRELATED)]
    # Spec row i has p1, p2, p = v(i), v(i + 1), v(i + 2); point (i, j) has
    # r = v(j), negativity v(i + j + 1) and eigenvalue v(i + j + 2).
    r = np.array(values)
    grid = lambda shift: np.array([[v(i + j + shift) for j in range(5)]
                                   for i in range(5)])
    results = [
        sweep.SweepResult(
            *spec_rows([_spec(kind, coupling, p1=v(i), p2=v(i + 1), p=v(i + 2),
                              global_mode=gmode or channels.PRODUCT)
                        for i in range(5)]),
            r, grid(1), grid(2))
        for kind, coupling, gmode in groups
    ]
    fmt = lambda x: f"{x:.12g}"
    rows = [
        ([kind, coupling, gmode], [fmt(v(i)), fmt(v(i + 1)),
                                   fmt(v(i + 2)) if gmode else "0",
                                   fmt(v(j)), fmt(v(i + j + 1)), fmt(v(i + j + 2))])
        for kind, coupling, gmode in groups for i in range(5) for j in range(5)
    ]
    csv_rows = [",".join(labels + numbers) for labels, numbers in rows]
    blocks = [
        f"# {kind} {coupling}" + (f" {gmode}" if gmode else "") + "\n"
        + "\n".join(" ".join(numbers) for _, numbers in rows[25 * g:25 * g + 25])
        + "\n"
        for g, (kind, coupling, gmode) in enumerate(groups)
    ]
    assert sweep.write_csv(results, str(tmp_path / "a.csv")) == 75
    assert sweep.write_plot_data(results, str(tmp_path / "a.dat")) == 3
    assert sweep.write_csv(results, str(tmp_path / "b.csv"),
                           str(tmp_path / "b.dat")) == 75
    for name in ("a", "b"):
        assert (tmp_path / f"{name}.csv").read_bytes().decode() == (
            "\n".join([sweep.CSV_HEADER, *csv_rows]) + "\n")
        assert (tmp_path / f"{name}.dat").read_bytes().decode() == "\n".join(blocks)
    assert "-0 4.94065645841e-324 1e-13 0.3 0.785398163397" in blocks[1]
    # The multilocal block prints p as 0 whatever the spec holds.
    assert "-0 4.94065645841e-324 0 0.3 0.785398163397" in blocks[0]


def test_write_failure_raises_io(tmp_path):
    s = sweep.SweepSpec(
        channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, steps=2
    )
    with pytest.raises(IoFailure):
        sweep.write_csv([sweep.run_sweep(s)],
                        str(tmp_path / "no_such_dir" / "a.csv"))


class _FullAfterOneChunk:
    """A text file that takes the first chunk it is given, then fails as a
    full disk does."""

    def __init__(self, fh):
        self._fh = fh
        self._written = False

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, text):
        if self._written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._written = True
        return self._fh.write(text)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def _fill_disk_after_one_chunk(monkeypatch):
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: _FullAfterOneChunk(
        fdopen(*args, **kwargs)))


def _unformattable_second_row():
    """A two-row result whose second row cannot be formatted."""
    spec = _spec(channels.PHASE_FLIP)
    values = np.array([[0.5], ["not a number"]], dtype=object)
    return sweep.SweepResult(*spec_rows([spec, spec]), np.array([0.0]), values, values)


@pytest.mark.parametrize("write", [sweep.write_csv, sweep.write_plot_data],
                         ids=["csv", "dat"])
@pytest.mark.parametrize("failure", ["disk-full", "bad-row"])
def test_a_failure_mid_stream_leaves_nothing_behind(tmp_path, monkeypatch,
                                                    write, failure):
    dest = tmp_path / "out"
    dest.write_bytes(b"old bytes\n")
    if failure == "disk-full":
        results = [sweep.run_sweep(sweep.SweepSpec(
            channel=_spec(channels.PHASE_FLIP), axis=sweep.AXIS_P, steps=3))]
        _fill_disk_after_one_chunk(monkeypatch)
        raised = IoFailure
    else:
        results = [_unformattable_second_row()]
        raised = TypeError
    with pytest.raises(raised):
        write(results, str(dest))
    assert dest.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [dest]  # no *.tmp left


@pytest.mark.parametrize("flags", [[], ["--plot-data"]], ids=["csv", "dat"])
def test_a_disk_full_mid_stream_exits_three(tmp_path, monkeypatch, capsys, flags):
    dest = tmp_path / "out"
    dest.write_bytes(b"old bytes\n")
    _fill_disk_after_one_chunk(monkeypatch)
    code = cli.main(["sweep", "--channel", "phase-flip", "--coupling", "ml",
                     "--axis", "p", "--steps", "3", "--out", str(dest), *flags])
    assert code == cli.EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert dest.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [dest]


def _repro_1a(tmp_path):
    return cli.main(["repro", "--figure", "1a", "--out-dir", str(tmp_path)])


def test_a_full_disk_on_the_dat_half_of_repro_keeps_both_old_files(
        tmp_path, monkeypatch, capsys):
    old = {name: f"old {name}\n".encode() for name in ("fig1a.csv", "fig1a.dat")}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    fdopen, opened = os.fdopen, []

    def dat_fills(*args, **kwargs):  # repro opens the CSV, then the .dat
        opened.append(fdopen(*args, **kwargs))
        return _FullAfterOneChunk(opened[-1]) if len(opened) == 2 else opened[-1]

    monkeypatch.setattr(os, "fdopen", dat_fills)
    assert _repro_1a(tmp_path) == cli.EXIT_IO
    dat = str(tmp_path / "fig1a.dat")
    assert capsys.readouterr() == (
        "", f"i/o failure: cannot write {dat!r}: No space left on device\n")
    assert len(opened) == 2 and all(fh.closed for fh in opened)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_repro_completes_both_temp_files_before_either_replace(
        tmp_path, monkeypatch, capsys):
    replace, seen = os.replace, []

    def recording_replace(src, dst):
        if not seen:  # the temp files as the first move finds them
            seen.extend(sorted(p.stat().st_size for p in tmp_path.glob("*.tmp")))
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    assert _repro_1a(tmp_path) == cli.EXIT_OK
    capsys.readouterr()
    assert seen == sorted(p.stat().st_size for p in tmp_path.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1a.csv", "fig1a.dat"]


def test_writers_hold_one_spec_row_at_a_time(tmp_path):
    # Figure 3 is 4 x 101 spec rows of 101 points: 3.5 MB of CSV text.  Built
    # whole, the lines took 12.9 MB (CSV) and 7.1 MB (.dat) at the peak.
    results = [sweep.run_sweep(s) for s in sweep.figure_sweeps("3")]
    tracemalloc.start()
    try:
        both = lambda results, dest: sweep.write_csv(results, dest, dest + ".dat")
        for write in (sweep.write_csv, sweep.write_plot_data, both):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write(results, str(tmp_path / "fig3"))
            assert tracemalloc.get_traced_memory()[1] - held < 2_000_000, write
    finally:
        tracemalloc.stop()


# --- figure presets ---------------------------------------------------------------

def test_figure_presets_cover_channels():
    for fig in sweep.FIGURES:
        specs = sweep.figure_sweeps(fig)
        assert [s.channel.kind for s in specs] == list(channels.KINDS)


def test_figure_axis_assignment():
    assert all(s.axis == sweep.AXIS_P for s in sweep.figure_sweeps("1a"))
    assert all(s.axis == sweep.AXIS_R for s in sweep.figure_sweeps("1c"))
    assert all(s.axis == sweep.AXIS_GRID for s in sweep.figure_sweeps("3"))
    assert all(
        s.channel.coupling == channels.GLOBAL
        for s in sweep.figure_sweeps("2b")
    )


def test_figure_fixed_parameters():
    for s in sweep.figure_sweeps("1d"):
        assert s.channel.p1 == 0.7 and s.channel.p2 == 0.7
    for s in sweep.figure_sweeps("2a"):
        assert s.r == pytest.approx(math.pi / 6)


def test_unknown_figure_rejected():
    with pytest.raises(OutOfRange):
        sweep.figure_sweeps("9z")


# --- input rules ----------------------------------------------------------------

_BAD = "nope"
_PF = channels.PHASE_FLIP


def _bad_parameter(name, value):
    return (lambda: _spec(_PF, channels.GLOBAL, **{name: value}),
            f"decoherence parameter {name}={value!r} outside [0, 1]")


# (call, exact OutOfRange text): every membership and range rule where its
# input enters.
_RULE_TEXTS = {
    "spec-kind": (lambda: _spec(_BAD), "unknown channel kind 'nope'"),
    "spec-coupling": (lambda: _spec(_PF, _BAD), "unknown coupling 'nope'"),
    "spec-global-mode": (lambda: _spec(_PF, global_mode=_BAD),
                         "unknown global mode 'nope'"),
    "spec-variant": (lambda: _spec(_PF, variant=_BAD), "unknown variant 'nope'"),
    "spec-level-order": (lambda: _spec(_PF, level_order=_BAD),
                         "unknown level order 'nope'"),
    "qutrit-kind": (lambda: channels.qutrit_channel(_BAD, 0.5),
                    "unknown channel kind 'nope'"),
    "qutrit-variant": (lambda: channels.qutrit_channel(_PF, 0.5, _BAD),
                       "unknown variant 'nope'"),
    "qutrit-level-order": (lambda: channels.qutrit_channel(_PF, 0.5, level_order=_BAD),
                           "unknown level order 'nope'"),
    "sweep-axis": (lambda: sweep.SweepSpec(_spec(_PF), axis=_BAD),
                   "unknown sweep axis 'nope'"),
    "figure": (lambda: sweep.figure_sweeps(_BAD), "unknown figure 'nope'"),
    **{f"{name}={value!r}": _bad_parameter(name, value)
       for name in ("p1", "p2", "p") for value in (-0.1, 1.5, math.nan)},
    **{f"r={value!r}": (lambda value=value: state.unruh_state(value),
                        f"acceleration parameter r={value!r} outside [0, pi/4]")
       for value in (-0.1, 0.9, math.nan)},
}


@pytest.mark.parametrize("make, text", _RULE_TEXTS.values(), ids=_RULE_TEXTS)
def test_every_input_rule_has_one_text(make, text):
    with pytest.raises(OutOfRange) as err:
        make()
    assert str(err.value) == text
