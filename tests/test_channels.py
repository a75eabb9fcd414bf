import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhsim import channels as ch
from unruhsim import sweep
from unruhsim.entanglement import pt_spectra
from unruhsim.errors import (
    CompletenessViolation,
    DimensionMismatch,
    NotHermitian,
    OutOfRange,
)
from unruhsim.state import unruh_state, validate_density

P_GRID = [round(0.1 * k, 10) for k in range(11)]
OMEGA = np.exp(2j * np.pi / 3)


# --- qubit sets -------------------------------------------------------------

def test_qubit_phase_flip_noiseless():
    k = ch.qubit_channel(ch.PHASE_FLIP, 0.0)
    np.testing.assert_array_equal(k[0], np.eye(2))
    np.testing.assert_array_equal(k[1], np.zeros((2, 2)))
    assert ch.completeness_defect(k) == 0.0


def test_qubit_dephasing_full_noise():
    k = ch.qubit_channel(ch.DEPHASING, 1.0)
    np.testing.assert_allclose(k[0], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(k[1], np.diag([0.0, 1.0]))


def test_qubit_bit_phase_flip_half():
    k = ch.qubit_channel(ch.BIT_TRIT_PHASE_FLIP, 0.5)
    assert ch.completeness_defect(k) <= 1e-15
    np.testing.assert_allclose(
        k[1], 0.5 * np.array([[0, -1j], [1j, 0]]), atol=1e-15
    )


@pytest.mark.parametrize("kind", ch.KINDS)
@pytest.mark.parametrize("p", P_GRID)
def test_qubit_sets_complete(kind, p):
    assert ch.completeness_defect(ch.qubit_channel(kind, p)) <= 1e-12


# --- qutrit sets ------------------------------------------------------------

def test_qutrit_printed_matrices_phase_flip():
    k = ch.qutrit_channel(ch.PHASE_FLIP, 0.36, level_order=ch.PRINTED)
    q, sp = math.sqrt(0.64), 0.6
    np.testing.assert_allclose(k[0], np.diag([1.0, q, q]), atol=1e-15)
    e1 = np.zeros((3, 3)); e1[0, 1] = sp
    e2 = np.zeros((3, 3)); e2[0, 2] = sp
    np.testing.assert_allclose(k[1], e1, atol=1e-15)
    np.testing.assert_allclose(k[2], e2, atol=1e-15)


def test_qutrit_printed_matrices_dephasing_as_printed():
    k = ch.qutrit_channel(ch.DEPHASING, 0.25, ch.AS_PRINTED, ch.PRINTED)
    # the stray unit entries sit at (0,0) of E1 and E2
    assert k[1][0, 0] == 1.0 and k[2][0, 0] == 1.0
    assert k[1][1, 1] == pytest.approx(0.5)


def test_qutrit_printed_matrices_trit_phase_flip():
    k = ch.qutrit_channel(
        ch.BIT_TRIT_PHASE_FLIP, 0.3, ch.AS_PRINTED, ch.PRINTED
    )
    w = math.sqrt(0.1)
    np.testing.assert_allclose(
        k[0], math.sqrt(1 - 0.2) * np.eye(3), atol=1e-15
    )
    np.testing.assert_allclose(
        k[1],
        w * np.array([[0, 0, OMEGA], [1, 0, 0], [0, OMEGA.conjugate(), 0]]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        k[3],
        w * np.array([[0, OMEGA, 0], [0, 0, OMEGA.conjugate()], [1, 0, 0]]),
        atol=1e-15,
    )


def test_reversed_order_is_permutation_conjugate():
    rev = np.fliplr(np.eye(3))
    for kind in ch.KINDS:
        printed = ch.qutrit_channel(kind, 0.4, level_order=ch.PRINTED)
        reversed_ = ch.qutrit_channel(kind, 0.4, level_order=ch.REVERSED)
        for a, b in zip(printed, reversed_):
            np.testing.assert_allclose(rev @ a @ rev, b, atol=1e-15)


@pytest.mark.parametrize("kind", ch.KINDS)
@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("order", [ch.PRINTED, ch.REVERSED])
def test_qutrit_corrected_sets_complete(kind, p, order):
    k = ch.qutrit_channel(kind, p, ch.CORRECTED, order)
    assert ch.completeness_defect(k) <= 1e-12


@pytest.mark.parametrize("p", P_GRID)
def test_as_printed_dephasing_defect_is_two(p):
    k = ch.qutrit_channel(ch.DEPHASING, p, ch.AS_PRINTED)
    assert ch.completeness_defect(k) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_as_printed_trit_phase_flip_defect_is_p_over_three(p):
    k = ch.qutrit_channel(ch.BIT_TRIT_PHASE_FLIP, p, ch.AS_PRINTED)
    assert ch.completeness_defect(k) == pytest.approx(p / 3, abs=1e-12)


@pytest.mark.parametrize("kind", [ch.PHASE_FLIP, ch.BIT_TRIT_FLIP])
@pytest.mark.parametrize("p", P_GRID)
def test_flip_and_phase_flip_identical_across_variants(kind, p):
    a = ch.qutrit_channel(kind, p, ch.AS_PRINTED)
    b = ch.qutrit_channel(kind, p, ch.CORRECTED)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_trit_flip_full_noise_weights():
    k = ch.qutrit_channel(ch.BIT_TRIT_FLIP, 1.0, level_order=ch.PRINTED)
    w = math.sqrt(1 / 3)
    np.testing.assert_allclose(k[0], w * np.eye(3), atol=1e-15)
    for e in k[1:]:
        np.testing.assert_allclose(np.abs(e), w * np.abs(e > 0), atol=1e-15)
        assert np.count_nonzero(e) == 3


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_parameter_range_enforced(bad):
    with pytest.raises(OutOfRange):
        ch.qubit_channel(ch.PHASE_FLIP, bad)
    with pytest.raises(OutOfRange):
        ch.qutrit_channel(ch.DEPHASING, bad)


# --- lifting ----------------------------------------------------------------

def test_lift_identity_cases():
    ident2 = (np.eye(2, dtype=complex),)
    np.testing.assert_array_equal(ch.lift_qubit(ident2)[0], np.eye(6))

    proj = (np.diag([1.0, 0, 0]).astype(complex),)
    np.testing.assert_array_equal(
        ch.lift_qutrit(proj)[0], np.diag([1.0, 0, 0, 1.0, 0, 0])
    )


def test_lift_dimension_check():
    k = ch.qubit_channel(ch.PHASE_FLIP, 0.5)
    with pytest.raises(DimensionMismatch):
        ch.lift_qutrit(k)
    with pytest.raises(DimensionMismatch):
        ch.lift_qubit(ch.qutrit_channel(ch.PHASE_FLIP, 0.5))


@pytest.mark.parametrize("kind", ch.KINDS)
@pytest.mark.parametrize("variant", [ch.AS_PRINTED, ch.CORRECTED])
def test_lifting_preserves_defect(kind, variant):
    for p in (0.0, 0.35, 1.0):
        kq = ch.qubit_channel(kind, p)
        assert ch.completeness_defect(ch.lift_qubit(kq)) == pytest.approx(
            ch.completeness_defect(kq), abs=1e-14
        )
        kt = ch.qutrit_channel(kind, p, variant)
        assert ch.completeness_defect(ch.lift_qutrit(kt)) == pytest.approx(
            ch.completeness_defect(kt), abs=1e-14
        )


# --- evolution --------------------------------------------------------------

def test_apply_identity_set():
    rho = unruh_state(0.3)
    ident = (np.eye(6, dtype=complex),)
    np.testing.assert_allclose(ch.apply(ident, rho), rho, atol=1e-15)


def test_qubit_dephasing_kills_coherence():
    rho = unruh_state(0.0)
    lifted = ch.lift_qubit(ch.qubit_channel(ch.DEPHASING, 1.0))
    out = ch.apply(lifted, rho)
    expected = np.zeros((6, 6), dtype=complex)
    expected[1, 1] = expected[3, 3] = 0.5
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_apply_rejects_incomplete_set():
    rho = unruh_state(0.1)
    bad = ch.lift_qutrit(ch.qutrit_channel(ch.DEPHASING, 0.5, ch.AS_PRINTED))
    with pytest.raises(CompletenessViolation) as err:
        ch.apply(bad, rho)
    assert err.value.defect == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("kind", ch.KINDS)
def test_evolution_preserves_state_invariants(kind):
    for p in (0.0, 0.4, 1.0):
        for r in (0.0, 0.5, math.pi / 4):
            rho = unruh_state(r)
            out = ch.multilocal_evolve(rho, kind, p, p)
            assert abs(np.trace(out) - 1) <= 1e-12
            out = ch.global_evolve(rho, kind, p, p, p)
            assert abs(np.trace(out) - 1) <= 1e-12


def test_noiseless_multilocal_is_identity():
    rho = unruh_state(0.6)
    out = ch.multilocal_evolve(rho, ch.BIT_TRIT_FLIP, 0.0, 0.0)
    np.testing.assert_allclose(out, rho, atol=1e-14)


@pytest.mark.parametrize("kind", ch.KINDS)
def test_single_sided_evolution_matches_lifted_channel(kind):
    rho = unruh_state(0.4)
    p = 0.55
    only_qubit = ch.multilocal_evolve(rho, kind, p, 0.0)
    lifted = ch.lift_qubit(ch.qubit_channel(kind, p))
    np.testing.assert_allclose(
        only_qubit, ch.apply(lifted, rho), atol=1e-12
    )
    only_qutrit = ch.multilocal_evolve(rho, kind, 0.0, p)
    lifted = ch.lift_qutrit(ch.qutrit_channel(kind, p))
    np.testing.assert_allclose(
        only_qutrit, ch.apply(lifted, rho), atol=1e-12
    )


def test_evolution_is_linear():
    rng = np.random.default_rng(7)
    rho1 = unruh_state(0.2)
    rho2 = validate_density(np.eye(6) / 6)
    for alpha in rng.uniform(0, 1, size=4):
        mix = validate_density(alpha * rho1 + (1 - alpha) * rho2)
        lhs = ch.multilocal_evolve(mix, ch.PHASE_FLIP, 0.3, 0.6)
        rhs = (
            alpha * ch.multilocal_evolve(rho1, ch.PHASE_FLIP, 0.3, 0.6)
            + (1 - alpha) * ch.multilocal_evolve(rho2, ch.PHASE_FLIP, 0.3, 0.6)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("kind", ch.KINDS)
def test_global_with_zero_collective_equals_multilocal(kind):
    rho = unruh_state(0.5)
    a = ch.global_evolve(rho, kind, 0.3, 0.7, 0.0)
    b = ch.multilocal_evolve(rho, kind, 0.3, 0.7)
    np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("coupling", ch.COUPLINGS)
def test_evolve_of_one_state_is_a_read_only_6x6_array(coupling):
    spec = ch.ChannelSpec(ch.DEPHASING, coupling, 0.3, 0.4, 0.5)
    out = ch.evolve(unruh_state(0.3), spec)
    assert type(out) is np.ndarray and out.shape == (6, 6)
    with pytest.raises(ValueError):
        out[0, 0] = 1.0


def test_correlated_mode_reports_not_hides():
    rho = unruh_state(0.2)
    with pytest.raises(CompletenessViolation):
        ch.global_evolve(rho, ch.PHASE_FLIP, 0.1, 0.1, 0.5,
                         global_mode=ch.CORRELATED)
    raw = ch.global_evolve(rho, ch.PHASE_FLIP, 0.1, 0.1, 0.5,
                           global_mode=ch.CORRELATED, allow_incomplete=True)
    assert isinstance(raw, np.ndarray)
    assert np.trace(raw).real < 1.0  # trace loss is visible, not renormalized


def test_channel_spec_validation():
    with pytest.raises(OutOfRange):
        ch.ChannelSpec(kind="nope", coupling=ch.MULTILOCAL)
    with pytest.raises(OutOfRange):
        ch.ChannelSpec(kind=ch.DEPHASING, coupling=ch.MULTILOCAL, p1=1.5)
    with pytest.raises(OutOfRange, match="level order"):
        ch.ChannelSpec(kind=ch.DEPHASING, coupling=ch.MULTILOCAL,
                       level_order="bogus")


# --- batched evaluation against the per-point Kraus arithmetic ---------------

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3, dtype=complex)


def _kraus_oracle(rho, spec):
    """One state through the spec's Kraus sets, one operator at a time:
    the local set (qutrit after qubit), then the collective set."""
    qubit = [np.kron(a, _I3) for a in ch.qubit_channel(spec.kind, spec.p1)]
    qutrit = [np.kron(_I2, b) for b in ch.qutrit_channel(
        spec.kind, spec.p2, spec.variant, spec.level_order)]
    sets = [[b @ a for a in qubit for b in qutrit]]
    if spec.coupling == ch.GLOBAL:
        sets.append(ch.collective_set(spec.kind, spec.p, spec.global_mode,
                                      spec.variant, spec.level_order))
    for ops in sets:
        out = np.zeros((6, 6), dtype=complex)
        for e in ops:
            out += e @ rho @ e.conj().T
        rho = out
    return rho


def _pt_oracle(m):
    out = m.copy()
    out[0:3, 3:6] = m[3:6, 0:3]
    out[3:6, 0:3] = m[0:3, 3:6]
    return np.linalg.eigvalsh(out)


_unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(ch.KINDS),
    coupling=st.sampled_from(ch.COUPLINGS),
    global_mode=st.sampled_from(ch.GLOBAL_MODES),
    variant=st.sampled_from(ch.VARIANTS),
    level_order=st.sampled_from([ch.PRINTED, ch.REVERSED]),
    p1=_unit, p2=_unit, p=_unit,
    rs=st.lists(st.floats(0.0, math.pi / 4, allow_nan=False),
                min_size=1, max_size=8),
)
def test_stacked_evolution_is_bit_equal_to_per_point_kraus(
    kind, coupling, global_mode, variant, level_order, p1, p2, p, rs
):
    spec = ch.ChannelSpec(kind, coupling, p1, p2, p, global_mode, variant,
                          level_order)
    states = np.stack([unruh_state(r) for r in rs])
    evolved = ch.evolve(states, spec, allow_incomplete=True)
    expected = np.stack([_kraus_oracle(m, spec) for m in states])
    np.testing.assert_array_equal(evolved, expected)

    eig, neg = pt_spectra(evolved)
    expected_eig = np.stack([_pt_oracle(m) for m in expected])
    np.testing.assert_array_equal(eig, expected_eig)
    expected_neg = [-e[e < -1e-12].sum() for e in expected_eig]
    np.testing.assert_array_equal(neg, expected_neg)

    # The per-point call is the same computation at N = 1.
    single = ch.evolve(unruh_state(rs[0]), spec, allow_incomplete=True)
    np.testing.assert_array_equal(single, expected[0])

    # The evaluator behind sweep, esd, verify and the CLI gives the same
    # numbers, as (1, len(rs)) arrays.
    min_eig, neg_grid = sweep.evaluate([spec], rs, allow_incomplete=True)
    np.testing.assert_array_equal(min_eig, [expected_eig[:, 0]])
    np.testing.assert_array_equal(neg_grid, [expected_neg])


def test_stack_validation_names_first_failing_matrix():
    noiseless = ch.ChannelSpec(ch.PHASE_FLIP, ch.MULTILOCAL)
    states = np.stack([unruh_state(r) for r in (0.0, 0.2, 0.4, 0.6)])
    states[2, 0, 1] += 3e-3
    states[3, 0, 1] += 5e-3
    with pytest.raises(NotHermitian, match="defect 3.000e-03"):
        ch.evolve(states, noiseless)
