import collections
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhsim import analytic, channels, sweep
from unruhsim.analytic import (
    MATCH,
    MISMATCH,
    dephasing_lambda,
    format_report,
    phase_flip_lambda,
    verify_against_numeric,
)
from unruhsim.entanglement import negativity, pt_spectra
from unruhsim.errors import OutOfRange
from unruhsim.state import R_MAX, unruh_state


def test_phase_flip_lambda_spot_values():
    assert phase_flip_lambda("multilocal", 0, 0, 0, 0) == pytest.approx(-0.5)
    assert phase_flip_lambda("multilocal", 0.5, 0.5, 0, 0) == pytest.approx(
        -0.125
    )
    assert phase_flip_lambda(
        "multilocal", 0.2, 0.3, 0, math.pi / 4
    ) == pytest.approx(-0.5 * 0.8 * 0.7 * 0.5)
    # global form at p=p1=p2=0.5, r=pi/6: -1/2 * 0.5 * 0.25 * 0.5 * 0.75
    assert phase_flip_lambda(
        "global", 0.5, 0.5, 0.5, math.pi / 6
    ) == pytest.approx(-0.0234375)
    assert phase_flip_lambda("global", 0, 0, 1.0, 0.0) == 0.0


def test_dephasing_lambda_spot_values():
    # p2 = 1/2 maximizes the qutrit factor at 2: lambda = -sqrt(2)/2 at p1=0.
    assert dephasing_lambda("multilocal", 0.0, 0.5, 0, 0.0) == pytest.approx(
        -math.sqrt(2) / 2
    )
    assert dephasing_lambda("multilocal", 1.0, 0.3, 0, 0.0) == 0.0
    assert dephasing_lambda("global", 0.0, 0.0, 0.0, 0.0) == pytest.approx(-0.5)


def test_lambda_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        phase_flip_lambda("multilocal", -0.1, 0, 0, 0)
    with pytest.raises(OutOfRange):
        dephasing_lambda("multilocal", 0, 0, 0, 1.0)
    with pytest.raises(OutOfRange):
        phase_flip_lambda("sideways", 0, 0, 0, 0)


@pytest.mark.parametrize("lam", [phase_flip_lambda, dephasing_lambda])
@pytest.mark.parametrize("args, text", [
    (("sideways", 0, 0, 0, 0), "unknown coupling 'sideways'"),
    (("multilocal", -0.1, 0, 0, 0), "decoherence parameter p1=-0.1 outside [0, 1]"),
    (("global", 0, 1.5, 0, 0), "decoherence parameter p2=1.5 outside [0, 1]"),
    (("global", 0, 0, math.nan, 0), "decoherence parameter p=nan outside [0, 1]"),
    (("multilocal", 0, 0, 0, 1.0), "acceleration parameter r=1.0 outside [0, pi/4]"),
])
def test_closed_forms_check_their_inputs_by_the_shared_rules(lam, args, text):
    with pytest.raises(OutOfRange) as err:
        lam(*args)
    assert str(err.value) == text
    # p enters only the global forms, so only they check it
    assert lam("multilocal", 0, 0, math.nan, 0) == lam("multilocal", 0, 0, 0, 0)


_unit = st.floats(0.0, 1.0, allow_nan=False)


def _closed_form_oracle(kind, coupling, p1, p2, p, r):
    """Each closed form as one expression, cos^2 r last."""
    c2 = math.cos(r) ** 2
    f2 = 2 * math.sqrt((1 - p2) * p2) + 1
    f = 2 * math.sqrt((1 - p) * p) + 1
    return {
        ("phase_flip", "multilocal"): lambda: -0.5 * (1 - p1) * (1 - p2) * c2,
        ("phase_flip", "global"):
            lambda: -0.5 * abs(1 - p) * (1 - p1) ** 2 * abs(1 - p2) * c2,
        ("dephasing", "multilocal"): lambda: -0.5 * math.sqrt((1 - p1) * f2) * c2,
        ("dephasing", "global"):
            lambda: -0.5 * math.sqrt(f * (1 - p1) ** 2 * f2) * c2,
    }[kind, coupling]()


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(analytic.ANALYTIC_KINDS),
       coupling=st.sampled_from(channels.COUPLINGS),
       p1=_unit, p2=_unit, p=_unit,
       r=st.floats(0.0, math.pi / 4, allow_nan=False))
def test_closed_form_is_its_factor_times_cos_squared(kind, coupling, p1, p2, p, r):
    # verify_against_numeric multiplies one factor per spec by cos^2 r;
    # that must be the public closed form, and the one-expression form,
    # to the last bit.
    bits = lambda x: np.float64(x).tobytes()
    factor = analytic._FACTORS[kind](coupling, p1, p2, p)
    lam = analytic._LAMBDAS[kind](coupling, p1, p2, p, r)
    assert bits(factor * math.cos(r) ** 2) == bits(lam)
    assert bits(lam) == bits(_closed_form_oracle(kind, coupling, p1, p2, p, r))


def test_verify_rejects_unsupported_kind():
    with pytest.raises(OutOfRange):
        verify_against_numeric(channels.BIT_TRIT_FLIP, channels.MULTILOCAL)


def test_multilocal_phase_flip_matches_pipeline():
    report = verify_against_numeric(
        channels.PHASE_FLIP, channels.MULTILOCAL, grid_points=11
    )
    assert report.verdict == MATCH
    assert report.max_abs_deviation <= 1e-12


def test_global_phase_flip_recorded_mismatch():
    # The printed global form carries (1-p1)^2 where the pipeline follows
    # (1-p)^2 (1-p1); both global modes therefore record a mismatch.
    for mode in (channels.PRODUCT, channels.CORRELATED):
        report = verify_against_numeric(
            channels.PHASE_FLIP,
            channels.GLOBAL,
            global_mode=mode,
            grid_points=5,
        )
        assert report.verdict == MISMATCH


def test_global_phase_flip_swapped_exponents_match_pipeline():
    # Empirical corrected form: -1/2 (1-p)^2 (1-p1)(1-p2) cos^2 r.
    rho = {r: unruh_state(r) for r in (0.0, 0.3, math.pi / 4)}
    for r, state in rho.items():
        for p1, p2, p in [(0.2, 0.4, 0.3), (0.5, 0.1, 0.7), (0.0, 0.9, 0.5)]:
            spec = channels.ChannelSpec(
                kind=channels.PHASE_FLIP,
                coupling=channels.GLOBAL,
                p1=p1,
                p2=p2,
                p=p,
            )
            out = channels.evolve(state, spec)
            expected = (
                -0.5 * (1 - p) ** 2 * (1 - p1) * (1 - p2) * math.cos(r) ** 2
            )
            assert negativity(out).min_eigenvalue == pytest.approx(
                expected, abs=1e-12
            )


# The pipeline's own closed forms of the minimum PT eigenvalue, without
# their cos^2 r.
_PIPELINE_FORMS = [
    (channels.PHASE_FLIP, channels.MULTILOCAL, channels.PRODUCT,
     lambda p1, p2, p: -0.5 * (1 - p1) * (1 - p2)),
    (channels.PHASE_FLIP, channels.GLOBAL, channels.PRODUCT,
     lambda p1, p2, p: -0.5 * (1 - p) ** 2 * (1 - p1) * (1 - p2)),
    (channels.PHASE_FLIP, channels.GLOBAL, channels.CORRELATED,
     lambda p1, p2, p: -0.5 * (1 - p) * (1 - p / 2) * (1 - p1) * (1 - p2)),
    (channels.DEPHASING, channels.MULTILOCAL, channels.PRODUCT,
     lambda p1, p2, p: -0.5 * np.sqrt(1 - p1) * (1 - p2)),
    (channels.DEPHASING, channels.GLOBAL, channels.PRODUCT,
     lambda p1, p2, p: -0.5 * (1 - p) ** 1.5 * np.sqrt(1 - p1) * (1 - p2)),
    (channels.DEPHASING, channels.GLOBAL, channels.CORRELATED,
     lambda p1, p2, p: -0.5 * (1 - p) ** 1.5 * np.sqrt(1 - p1) * (1 - p2)),
]


@pytest.mark.parametrize("kind, coupling, mode, form", _PIPELINE_FORMS,
                         ids=["phase_flip-ml", "phase_flip-global-product",
                              "phase_flip-global-correlated", "dephasing-ml",
                              "dephasing-global-product", "dephasing-global-correlated"])
def test_pipeline_closed_forms_hold_on_the_report_grid(kind, coupling, mode, form):
    # verify's default grid: 21 points per axis for multilocal, 11 for global.
    n = 21 if coupling == channels.MULTILOCAL else 11
    axis, r = sweep._axis(1.0, n), sweep._axis(R_MAX, n)
    p_axis = axis if coupling == channels.GLOBAL else np.array([0.0])
    params = np.stack(np.meshgrid(axis, axis, p_axis, indexing="ij"), -1).reshape(-1, 3)
    spec = channels.ChannelSpec(kind, coupling, global_mode=mode)
    _, min_eig, neg = sweep.evaluate(spec, tuple(params.T), r, allow_incomplete=True)
    lam = form(*params.T)[:, None] * np.cos(r) ** 2
    assert np.abs(min_eig - lam).max() <= 1e-15
    assert np.abs(neg - np.maximum(0.0, -lam)).max() <= 1e-15


def test_dephasing_mismatches_corrected_pipeline():
    # The dephasing closed form tracks the raw printed operators, which are
    # not trace preserving; against the corrected pipeline it deviates.
    report = verify_against_numeric(
        channels.DEPHASING, channels.MULTILOCAL, grid_points=7
    )
    assert report.verdict == MISMATCH
    assert report.max_abs_deviation > 0.01


def test_dephasing_matches_uncorrected_pipeline():
    # Only the raw uncorrected operators read in their original level order
    # reproduce the dephasing closed form, which pins down its origin.
    axis, r = sweep._axis(1.0, 7), sweep._axis(R_MAX, 7)
    params = np.stack(np.meshgrid(axis, axis, [0.0], indexing="ij"), -1).reshape(-1, 3)
    spec = channels.ChannelSpec(channels.DEPHASING, channels.MULTILOCAL,
                                variant=channels.AS_PRINTED,
                                level_order=channels.PRINTED)
    _, min_eig, neg = sweep.evaluate(spec, tuple(params.T), r, allow_incomplete=True)
    lam = analytic._FACTORS[channels.DEPHASING](channels.MULTILOCAL, *params.T)
    lam = lam[:, None] * np.cos(r) ** 2
    assert np.abs(min_eig - lam).max() <= 1e-12
    assert np.abs(neg - np.maximum(0.0, -lam)).max() <= 1e-12


def test_exactly_one_negative_eigenvalue_for_phase_flip():
    for r in (0.1, 0.5, math.pi / 4):
        rho = unruh_state(r)
        for p1 in (0.0, 0.4, 0.9):
            for p2 in (0.0, 0.4, 0.9):
                spec = channels.ChannelSpec(
                    kind=channels.PHASE_FLIP,
                    coupling=channels.MULTILOCAL,
                    p1=p1,
                    p2=p2,
                )
                out = channels.evolve(rho, spec)
                eig = negativity(out).eigenvalues
                assert sum(1 for x in eig if x < -1e-12) <= 1


def test_format_report_is_deterministic():
    report = verify_against_numeric(
        channels.PHASE_FLIP, channels.MULTILOCAL, grid_points=3
    )
    text = format_report(report)
    assert text == format_report(report)
    assert text.startswith("channel:           phase_flip\n")
    assert "verdict:           match" in text
    assert text.endswith("\n")


def test_report_grid_description():
    r1 = verify_against_numeric(
        channels.PHASE_FLIP, channels.MULTILOCAL, grid_points=5
    )
    assert r1.grid_description == "5x5x5 (p1, p2, r)"
    r2 = verify_against_numeric(
        channels.PHASE_FLIP, channels.GLOBAL, grid_points=3
    )
    assert r2.grid_description == "3x3x3x3 (p1, p2, p, r)"
    assert r2.global_mode == channels.PRODUCT
    assert r1.global_mode == "-"


# --- verify grids as parameter arrays -----------------------------------------

# The six default reports of ``verify --out-dir``, then one non-default grid.
_GRIDS = [(kind, coupling, mode, None) for kind in analytic.ANALYTIC_KINDS
          for coupling, mode in [(channels.MULTILOCAL, channels.PRODUCT),
                                 (channels.GLOBAL, channels.PRODUCT),
                                 (channels.GLOBAL, channels.CORRELATED)]]
_GRIDS.append((channels.DEPHASING, channels.GLOBAL, channels.CORRELATED, 4))


@pytest.mark.parametrize("kind, coupling, mode, grid_points", _GRIDS)
def test_verify_arrays_are_a_per_spec_loop_bit_for_bit(
    monkeypatch, kind, coupling, mode, grid_points
):
    # The grid goes in as one template and (p1, p2, p) rows; a loop that
    # builds each row's ChannelSpec and evolves it alone must give the same
    # bits, and so must the closed form evaluated one spec at a time.
    calls, factors = [], []
    evaluate, factor = analytic.evaluate, analytic._FACTORS[kind]
    monkeypatch.setattr(analytic, "evaluate", lambda *args, **kwargs: calls.append(
        (args, evaluate(*args, **kwargs))) or calls[-1][1])
    monkeypatch.setitem(analytic._FACTORS, kind, lambda *args: factors.append(
        (args, factor(*args))) or factors[-1][1])
    verify_against_numeric(kind, coupling, mode, grid_points)
    [((template, _, r_axis), (params, min_eig, neg))] = calls
    # The rows of the nested loop p1, p2, p over the grid's axis.
    axis = np.linspace(0.0, 1.0, len(r_axis)).tolist()
    p_axis = axis if coupling == channels.GLOBAL else [0.0]
    assert params.tolist() == [[a, b, c] for a in axis for b in axis for c in p_axis]
    states = unruh_state(r_axis)
    for row, eig_row, neg_row in zip(params.tolist(), min_eig, neg):
        spec = channels.ChannelSpec(kind, coupling, *row, global_mode=mode)
        assert spec == replace(template, p1=row[0], p2=row[1], p=row[2])
        rows = channels.evolve(states, spec, allow_incomplete=True)
        eig, want_neg = pt_spectra(rows, validated=not rows.flags.writeable)
        assert eig_row.tobytes() == eig[:, 0].tobytes()
        assert neg_row.tobytes() == want_neg.tobytes()
    [((_, *columns), closed)] = factors
    np.testing.assert_array_equal(np.stack(columns, axis=1), params)
    per_spec = [factor(coupling, *row) for row in params.tolist()]
    assert closed.tobytes() == np.array(per_spec).tobytes()


def test_a_verify_report_builds_one_spec_and_one_evolve_call_per_chunk(monkeypatch):
    counts = collections.Counter()
    post_init = channels.ChannelSpec.__post_init__
    evolve, eigvalsh = channels.evolve, np.linalg.eigvalsh

    def count(key, fn):
        return lambda *args, **kwargs: counts.update([key]) or fn(*args, **kwargs)

    monkeypatch.setattr(channels.ChannelSpec, "__post_init__",
                        count("specs", post_init))
    monkeypatch.setattr(channels, "evolve", count("evolve", evolve))
    monkeypatch.setattr(np.linalg, "eigvalsh", count("eigvalsh", eigvalsh))
    for kind, coupling, mode, grid_points in _GRIDS:
        counts.clear()
        verify_against_numeric(kind, coupling, mode, grid_points)
        n = grid_points or (21 if coupling == channels.MULTILOCAL else 11)
        rows = n ** (3 if coupling == channels.GLOBAL else 2)
        chunks = -(-rows // (sweep._CHUNK_MATRICES // n))
        assert counts == {"specs": 1, "evolve": chunks, "eigvalsh": chunks}
