import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

import openblas_cores
import paper_kraus
from spec_rows import spec_axes, spec_rows

P_GRID = [round(0.1 * k, 10) for k in range(11)]
OMEGA = paper_kraus.OMEGA


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


# --- the scalar tables against the paper's matrices ---------------------------

def _paper_qubit(kind, p):
    """The qubit operators as printed in the paper, as floats."""
    return paper_kraus.floats(paper_kraus.qubit(kind, p))


def _paper_qutrit(kind, p, variant, order):
    """The qutrit operators of the paper, in the given variant and order."""
    return paper_kraus.floats(paper_kraus.qutrit(kind, p, variant, order))


def _paper_defect(ops):
    return np.abs(sum(e.conj().T @ e for e in ops) - np.eye(len(ops[0]))).max()


def _paper_set(kind, p1, p2, mode, variant, order):
    """The 6x6 set from the paper's matrices and np.kron: every pair for
    product, index-by-index pairs padded with zeros for correlated."""
    qubit, qutrit = _paper_qubit(kind, p1), _paper_qutrit(kind, p2, variant, order)
    if mode == ch.PRODUCT:
        return np.stack([np.kron(a, b) for a in qubit for b in qutrit])
    qubit += [np.zeros((2, 2), dtype=complex)] * (len(qutrit) - len(qubit))
    return np.stack([np.kron(a, b) for a, b in zip(qubit, qutrit)])


_TABLE_P = (0.0, 5e-324, 1e-300, 0.3, 0.5, 1.0)


def _one_set(kind, p1, p2, mode, variant, order):
    """The set at (p1, p2) as a one-pair stage, and its defect: the
    ``_GatherSet`` stage of one set, or the set's (K, 6, 6) array."""
    stage, (defect,) = ch._stage_sets(kind, ((p1, p2),), mode, variant, order)
    return (stage if isinstance(stage, ch._GatherSet) else stage[0]), defect


def _each_set(stage):
    """The sets of a gather stage, one by one, with (K, 36) factors."""
    return [stage._replace(v=v, w=w) for v, w in zip(stage.v, stage.w)]


@pytest.mark.parametrize("kind", ch.KINDS)
@pytest.mark.parametrize("variant", ch.VARIANTS)
@pytest.mark.parametrize("order", [ch.PRINTED, ch.REVERSED])
def test_table_sets_are_the_papers_matrices_bit_for_bit(kind, variant, order):
    for p in _TABLE_P:
        qubit, qutrit = _paper_qubit(kind, p), _paper_qutrit(kind, p, variant, order)
        for got, want in ((ch.qubit_channel(kind, p), qubit),
                          (ch.qutrit_channel(kind, p, variant, order), qutrit)):
            _assert_same_bits(got, np.stack(want))
            assert ch.completeness_defect(got) == _paper_defect(want)
    # A correlated set keeps the first min(Ka, Kb) pairs: the paper's
    # padding operators beyond them are zero.
    kept = min(len(qubit), len(qutrit))
    for mode in ch.GLOBAL_MODES:
        # Where each row's nonzero lies: at p = 1/2 every entry that is
        # nonzero at some p is nonzero.
        col = (_paper_set(kind, 0.5, 0.5, mode, variant, order) != 0).argmax(axis=-1)
        # A collective set (correlated or product) takes one p; a local
        # (product) set one p per system.
        pairs = [(p1, p2) for p1 in _TABLE_P for p2 in _TABLE_P
                 if mode == ch.PRODUCT or p1 == p2]
        if mode == ch.CORRELATED:
            col = col[:kept]
        for p1, p2 in pairs:
            want = _paper_set(kind, p1, p2, mode, variant, order)
            if mode == ch.CORRELATED:
                assert not want[kept:].any()
                want = want[:kept]
            ops, defect = _one_set(kind, p1, p2, mode, variant, order)
            assert defect == _paper_defect(want)
            if kind not in _GATHER_KINDS:
                # A matmul stage holds the set as one (K, 6, 6) array.
                assert ops.shape == want.shape
                _assert_same_bits(ops, want)
                continue
            # v_i is row i's entry in column col(i); v holds v_i and w
            # conj(v_j) for output entry (i, j).
            v = np.take_along_axis(want, col[..., None], axis=-1)[..., 0]
            k = len(want)
            np.testing.assert_array_equal(
                ops.rho_index, (col[:, :, None] * 6 + col[:, None, :]).reshape(k, 36))
            _assert_same_bits(ops.v, np.repeat(v, 6, axis=1)[None])
            _assert_same_bits(ops.w, np.tile(v.conj(), 6)[None])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ch.KINDS), st.sampled_from(ch.VARIANTS),
       st.sampled_from(ch.LEVEL_ORDERS), st.floats(0.0, 1.0))
def test_builders_are_the_papers_matrices_bit_for_bit_at_any_p(kind, variant, order, p):
    _assert_same_bits(ch.qubit_channel(kind, p), np.stack(_paper_qubit(kind, p)))
    _assert_same_bits(ch.qutrit_channel(kind, p, variant, order),
                      np.stack(_paper_qutrit(kind, p, variant, order)))


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


@functools.lru_cache(maxsize=None)
def _oracle_sets(spec):
    """The spec's Kraus sets from the paper's matrices, as the oracle applies
    them: the local set (qutrit after qubit), then the collective set."""
    structure = spec.variant, spec.level_order
    qubit = [np.kron(a, _I3) for a in _paper_qubit(spec.kind, spec.p1)]
    qutrit = [np.kron(_I2, b) for b in _paper_qutrit(spec.kind, spec.p2, *structure)]
    sets = [[b @ a for a in qubit for b in qutrit]]
    if spec.coupling == ch.GLOBAL:
        sets.append(_paper_set(spec.kind, spec.p, spec.p, spec.global_mode, *structure))
    return sets


def _kraus_oracle(rho, spec):
    """One state through the spec's Kraus sets, one operator at a time."""
    for ops in _oracle_sets(spec):
        rho = _per_matrix_loop(ops, rho)
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
    # Further specs whose (p1, p2, p) are drawn from the pool {p1, p2, p},
    # so that local and collective sets repeat across the list.
    picks=st.lists(st.tuples(*[st.integers(0, 2)] * 3), max_size=6),
)
def test_stacked_evolution_is_bit_equal_to_per_point_kraus(
    kind, coupling, global_mode, variant, level_order, p1, p2, p, rs, picks
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

    # A spec list evolves each spec as the oracle does, with a leading
    # spec axis, however its local and collective sets are shared.
    pool = (p1, p2, p)
    specs = [spec] + [replace(spec, p1=pool[a], p2=pool[b], p=pool[c])
                      for a, b, c in picks]
    expected_list = np.stack([[_kraus_oracle(m, s) for m in states]
                              for s in specs])
    np.testing.assert_array_equal(
        ch.evolve(states, *spec_rows(specs), allow_incomplete=True), expected_list)

    # The evaluator behind sweep, esd, verify and the CLI gives the same
    # numbers, as (len(specs), len(rs)) arrays.
    oracle_eig = np.stack([[_pt_oracle(m) for m in row] for row in expected_list])
    _, min_eig, neg_grid = sweep.evaluate(*spec_axes(specs), rs, allow_incomplete=True)
    np.testing.assert_array_equal(min_eig, oracle_eig[..., 0])
    np.testing.assert_array_equal(
        neg_grid, [[-e[e < -1e-12].sum() for e in row] for row in oracle_eig])


def test_evaluate_across_chunks_equals_spec_by_spec():
    axis = [0.0, 0.25, 0.5, 0.75, 1.0]
    rs = np.linspace(0.0, math.pi / 4, 11)
    for mode in ch.GLOBAL_MODES:
        specs = [ch.ChannelSpec(ch.BIT_TRIT_PHASE_FLIP, ch.GLOBAL, p1, p2, p, mode)
                 for p1 in axis for p2 in axis for p in axis]
        assert len(specs) * len(rs) > 2 * sweep._CHUNK_MATRICES
        batched = sweep.evaluate(*spec_axes(specs), rs, allow_incomplete=True)[1:]
        alone = [sweep.evaluate(s, None, rs, allow_incomplete=True)[1:] for s in specs]
        for got, want in zip(batched, zip(*alone)):
            assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("n", [101, sweep._CHUNK_MATRICES])
@pytest.mark.parametrize("mode", ch.GLOBAL_MODES)
@pytest.mark.parametrize("variant", ch.VARIANTS)
@pytest.mark.parametrize("order", [ch.PRINTED, ch.REVERSED])
def test_matmul_kernel_is_bit_equal_to_per_point_kraus_at_full_stack_size(
    n, mode, variant, order
):
    # The matmul kernel puts E^dag on the right of all N*6 rows of a stack in
    # one product; the hypothesis oracle above draws at most 8 states.
    states = unruh_state(np.linspace(0.0, math.pi / 4, n))
    for p1, p2, p in [(0.0, 0.0, 0.0), (0.37, 0.37, 0.37), (1.0, 1.0, 1.0),
                      (0.3, 0.8, 0.45)]:
        spec = ch.ChannelSpec(ch.BIT_TRIT_PHASE_FLIP, ch.GLOBAL, p1, p2, p, mode,
                              variant, order)
        evolved = ch.evolve(states, spec, allow_incomplete=True)
        for got, m in zip(evolved, states):
            _assert_same_bits(got, _kraus_oracle(m, spec))


_LAYOUTS = {
    # Unruh states are real symmetric, so each view holds the same values.
    "swapaxes": lambda s: np.swapaxes(s, 1, 2),
    "conj-transposed": lambda s: s.conj().swapaxes(-1, -2),
    "fortran": np.asfortranarray,
    "strided": lambda s: np.repeat(s, 2, axis=0)[::2],
}


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("kind", ch.KINDS)
@pytest.mark.parametrize("coupling", ch.COUPLINGS)
def test_evolve_gives_the_same_bits_for_any_memory_layout(layout, kind, coupling):
    # Both kernels write into their own buffers, whatever the layout of the
    # stack they are given.
    states = unruh_state(np.linspace(0.0, math.pi / 4, 5))
    view = _LAYOUTS[layout](states)
    np.testing.assert_array_equal(view, states)
    assert not view.flags.c_contiguous
    for mode in ch.GLOBAL_MODES:
        spec = ch.ChannelSpec(kind, coupling, 0.3, 0.8, 0.45, mode)
        evolved = ch.evolve(view, spec, allow_incomplete=True)
        for got, m in zip(evolved, states):
            _assert_same_bits(got, _kraus_oracle(m, spec))


# --- the gather kernel against the matmul kernel ------------------------------

_GATHER_KINDS = (ch.PHASE_FLIP, ch.DEPHASING, ch.BIT_TRIT_FLIP)
_STRUCTURES = [(kind, mode, variant, order)
               for kind in ch.KINDS for mode in ch.GLOBAL_MODES
               for variant in ch.VARIANTS for order in (ch.PRINTED, ch.REVERSED)]


@pytest.fixture
def gather_calls(monkeypatch):
    """The number of sets, the stack shape and the size of the support
    (None for all 36 entries) of each gather-kernel call made so far."""
    calls = []
    gather = ch._gather

    def spy(sets, x):
        support = _support(x)
        calls.append((len(sets.v), x.shape, None if support is None else support.sum()))
        return gather(sets, x)

    monkeypatch.setattr(ch, "_gather", spy)
    return calls


def _support(x):
    """The entries (36,) nonzero in some matrix of the flat stack x, nan and
    inf included, or None, for all 36, when x holds one matrix: the support
    ``_gather`` reads off its input."""
    return None if x.size == 36 else x.reshape(-1, 36).any(axis=0)


def _reach(sets, x):
    """The output entries (36,) that ``_gather`` forms for x: those c for
    which some rho_index[k, c] lies in the support, or None for all 36."""
    support = _support(x)
    return None if support is None else support[sets.rho_index].any(axis=0)


def _stage_apply(ops, m):
    """The set ``ops`` of ``_one_set`` applied to m, one matrix or a stack,
    as a one-set stage through ``_stage``, the way ``evolve`` calls it."""
    m = np.asarray(m, complex)
    stage = ops if isinstance(ops, ch._GatherSet) else (ops,)
    x = m.reshape(1, -1, 36)
    return ch._stage(stage, x)[0].reshape(m.shape)


def _matmul(ops, m):
    """The plain tuple of operators ``ops`` applied to m, one matrix or a
    stack, as a one-set stage of the matmul kernel."""
    m = np.asarray(m, complex)
    return ch.apply_unchecked((ops,), m.reshape(1, -1, 36))[0].reshape(m.shape)


@pytest.mark.parametrize("kind, mode, variant, order", _STRUCTURES)
def test_gather_kernel_is_chosen_exactly_for_real_or_imaginary_sets(
    kind, mode, variant, order, gather_calls
):
    ops, _ = _one_set(kind, 0.3, 0.6, mode, variant, order)
    assert isinstance(ops, ch._GatherSet) == (kind in _GATHER_KINDS)
    _stage_apply(ops, unruh_state(0.2))
    assert len(gather_calls) == (kind in _GATHER_KINDS)
    # evolve applies a local and a collective set, each a stage it builds.
    gather_calls.clear()
    ch.evolve(unruh_state(0.2), ch.ChannelSpec(kind, ch.GLOBAL, 0.3, 0.6, 0.4,
                                               mode, variant, order),
              allow_incomplete=True)
    assert len(gather_calls) == 2 * (kind in _GATHER_KINDS)


def _operators(kind, p1, p2, mode, variant, order):
    """The set as a plain tuple of 6x6 operators from the public builders."""
    return tuple(ch._tensor_set(ch.qubit_channel(kind, p1),
                                ch.qutrit_channel(kind, p2, variant, order), mode))


def test_plain_operator_tuples_take_the_matmul(gather_calls):
    key = (ch.PHASE_FLIP, 0.3, 0.3, ch.PRODUCT, ch.CORRECTED, ch.REVERSED)
    ops, _ = _one_set(*key)
    rho = unruh_state(0.4)
    plain = ch.apply(_operators(*key), rho)
    np.testing.assert_array_equal(_matmul(_operators(*key), rho), plain)
    np.testing.assert_array_equal(_stage_apply(_operators(*key), rho), plain)
    assert gather_calls == []
    np.testing.assert_array_equal(_stage_apply(ops, rho), plain)
    assert gather_calls == [(1, (1, 1, 36), None)]


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    for part in ("real", "imag"):
        np.testing.assert_array_equal(np.signbit(getattr(got, part)),
                                      np.signbit(getattr(want, part)))


_KERNEL_P = (0.0, 5e-324, 0.3, 1.0)


def _kernel_inputs():
    """101 Unruh states and, beside them, 101 dense matrices with signed
    zeros in both parts."""
    rng = np.random.default_rng(11)
    states = np.stack([unruh_state(r) for r in np.linspace(0, math.pi / 4, 101)])
    noise = rng.normal(size=(101, 6, 6)) + 1j * rng.normal(size=(101, 6, 6))
    noise.real[rng.random(noise.shape) < 0.3] = -0.0
    noise.imag[rng.random(noise.shape) < 0.3] = -0.0
    return states, noise


@pytest.mark.parametrize("kind, mode, variant, order",
                         [s for s in _STRUCTURES if s[0] in _GATHER_KINDS])
def test_gather_kernel_is_bit_equal_to_the_matmul(kind, mode, variant, order):
    inputs = _kernel_inputs()
    for p1 in _KERNEL_P:
        for p2 in _KERNEL_P:
            ops, _ = _one_set(kind, p1, p2, mode, variant, order)
            plain = _operators(kind, p1, p2, mode, variant, order)
            for m in inputs:
                for stack in (m, m[:1], m[0]):
                    _assert_same_bits(_stage_apply(ops, stack), _matmul(plain, stack))


@pytest.mark.parametrize("kind, mode, variant, order",
                         [s for s in _STRUCTURES if s[1] == ch.CORRELATED])
def test_correlated_stage_is_bit_equal_to_the_papers_padded_set(
    kind, mode, variant, order
):
    # The correlated set leaves out the zero operators that pad the
    # paper's set; the matmul over the paper's set still adds them.
    for p in _KERNEL_P:
        ops, _ = _one_set(kind, p, p, mode, variant, order)
        paper = _paper_set(kind, p, p, mode, variant, order)
        assert not paper[2:].any()  # two qubit operators, padded to the qutrit's
        for m in _kernel_inputs():
            for stack in (m, m[:1]):
                _assert_same_bits(_stage_apply(ops, stack), _matmul(paper, stack))


# --- the matmul kernel against the per-matrix loop ----------------------------

_MATMUL_STRUCTURES = [s for s in _STRUCTURES if s[0] not in _GATHER_KINDS]


def _per_matrix_loop(ops, m):
    """sum E rho E^dag one operator and one matrix at a time, from +0."""
    out = np.zeros(m.shape, complex)
    pairs = [(e, e.conj().T) for e in ops]
    for n in np.ndindex(m.shape[:-2]):
        for e, e_dag in pairs:
            out[n] += e @ m[n] @ e_dag
    return out


@pytest.mark.parametrize("kind, mode, variant, order", _MATMUL_STRUCTURES)
def test_stacked_left_product_is_bit_equal_to_the_per_matrix_loop(
    kind, mode, variant, order
):
    for n in (1, 101, 128, 512):
        states = unruh_state(np.linspace(0.0, math.pi / 4, n))
        for p in (0.37, 1.0):  # at p = 1 the identity terms are zero operators
            ops, _ = _one_set(kind, p, p, mode, variant, order)
            # The paper pads the two qubit operators with zeros to four; the
            # correlated set keeps the two pairs.
            paper = _paper_set(kind, p, p, mode, variant, order)
            if mode == ch.CORRELATED:
                assert len(ops) == 2
            # Unruh states (real) and their evolved states (complex).
            for m in (states, _stage_apply(ops, states)):
                wants = {}  # the loop's result for each distinct stack of values
                for view in [m, *(f(m) for f in _LAYOUTS.values())]:
                    values = np.ascontiguousarray(view)
                    if values.tobytes() not in wants:
                        want = _per_matrix_loop(ops, values)
                        _assert_same_bits(_per_matrix_loop(paper, values), want)
                        wants[values.tobytes()] = want
                    want = wants[values.tobytes()]
                    _assert_same_bits(_stage_apply(ops, view), want)
                    _assert_same_bits(_matmul(ops, view), want)
                if n == 1:
                    _assert_same_bits(_stage_apply(ops, m[0]),
                                      _per_matrix_loop(ops, m[0]))
        # A 3-set stage in one call, on one shared input and on one input
        # per set, as the local and the collective stage of ``evolve``.
        stage, _ = ch._stage_sets(kind, ((0.37, 0.37), (1.0, 1.0), (0.9, 0.9)),
                                  mode, variant, order)
        shared = states.reshape(1, n, 36)
        got = ch.apply_unchecked(stage, shared)
        assert got.shape == (3, n, 36)
        for ops, g in zip(stage, got):
            _assert_same_bits(g.reshape(states.shape), _per_matrix_loop(ops, states))
        own = got[[2, 0, 1]]  # three distinct stacks
        got = ch.apply_unchecked(stage, own)
        for ops, g, x in zip(stage, got, own):
            x = x.reshape(states.shape)
            _assert_same_bits(g.reshape(x.shape), _per_matrix_loop(ops, x))


@pytest.mark.parametrize("mode", ch.GLOBAL_MODES)
def test_matmul_set_makes_one_left_product_whatever_its_size(mode, monkeypatch):
    # One left product for the whole stage of three sets.
    pairs = ((0.3, 0.3), (0.9, 0.9), (0.3, 0.3))
    stage, _ = ch._stage_sets(ch.BIT_TRIT_PHASE_FLIP, pairs, mode, ch.CORRECTED,
                              ch.REVERSED)
    k = {ch.PRODUCT: 8, ch.CORRELATED: 2}[mode]
    x = unruh_state(np.linspace(0.0, math.pi / 4, 101)).reshape(1, -1, 36)
    calls, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        calls.append((np.shape(a), np.shape(b)))
        return matmul(a, b, *args, **kwargs)

    # The right-hand products use the @ operator, which the spy does not see.
    monkeypatch.setattr(np, "matmul", spy)
    ch._stage(stage, x)
    assert calls == [((3, 1, k * 6, 6), (1, 101, 6, 6))]


# Figure 3's bit-trit phase flip sets, in stages of five as its chunks hold
# them, each stage applied to the shared Unruh states and then to its own
# results (the local, then the collective stage), against a loop over each
# set's operators that makes one gemm per matrix, as e @ m[n] does.
_CORE_CHECK = """
import numpy as np
from unruhsim import channels as ch, sweep
from unruhsim.state import R_MAX, unruh_state

(fig,) = [s for s in sweep.figure_sweeps("3") if s.channel.kind == ch.BIT_TRIT_PHASE_FLIP]
c, ps = fig.channel, np.linspace(0.0, 1.0, fig.steps).tolist()
sets, _ = ch._stage_sets(c.kind, tuple(zip(ps, ps)), c.global_mode, c.variant,
                         c.level_order)
states = unruh_state(np.linspace(0.0, R_MAX, fig.steps)).reshape(1, -1, 36)
differ = 0
for i in range(0, len(sets), 5):
    stage, x = sets[i:i + 5], states
    for _ in range(2):
        got = ch.apply_unchecked(stage, x)
        for ops, g, m in zip(stage, got, np.broadcast_to(x, got.shape)):
            m = m.reshape(-1, 6, 6)
            want = np.zeros(m.shape, complex)
            for e in ops:
                want += np.matmul(np.matmul(e, m), e.conj().T)
            differ += g.tobytes() != want.tobytes()
        x = got
print(differ, 2 * len(sets))
"""


@pytest.mark.parametrize("core, flag", openblas_cores.CORES)
def test_stacked_left_product_keeps_its_bits_on_each_openblas_core(core, flag):
    # Each child compares the two products under its own BLAS kernel.
    reason = openblas_cores.unavailable(flag)
    if reason:
        pytest.skip(reason)
    child = openblas_cores.start(core, _CORE_CHECK)
    out, err = child.communicate(timeout=60)
    assert child.returncode == 0, err
    assert out.split() == ["0", "202"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_STRUCTURES), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_cached_defect_is_the_matmul_defect_bit_for_bit(structure, p1, p2):
    kind, mode, variant, order = structure
    p2 = p2 if mode == ch.PRODUCT else p1  # a collective set takes one p
    _, defect = _one_set(kind, p1, p2, mode, variant, order)
    plain = _operators(kind, p1, p2, mode, variant, order)
    assert defect == ch.completeness_defect(plain)


def _gather_formula(gather, m):
    """E rho E^dag of one gather set for every matrix of the flat (N, 36)
    stack m, over all 36 entries: (rho[pi(i), pi(j)] * v_i) * conj(v_j),
    summed over the operators in order from +0, as the matmul sums."""
    terms = m[:, gather.rho_index] * gather.v * gather.w  # (N, K, 36)
    out = np.zeros((len(m), 36), complex)
    for k in range(terms.shape[1]):
        out = out + terms[:, k]
    return out


_GATHER_STRUCTURES = [s for s in _STRUCTURES if s[0] in _GATHER_KINDS]
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -0.5, 5e-324, math.nan, math.inf,
                            -math.inf])
_ENTRY = st.one_of(_SPECIAL, st.floats(-4.0, 4.0))


@st.composite
def _gather_inputs(draw):
    """A stack of 6x6 matrices, or one matrix, in some memory layout: its
    entries are nonzero only on a drawn support, some matrices are all
    zero, and -0, nan and inf all occur."""
    n = draw(st.integers(1, 4))
    m = np.empty((n, 6, 6), complex)
    m.real, m.imag = draw(arrays(float, (2, n, 6, 6), elements=_ENTRY))
    off = ~draw(arrays(bool, (6, 6)))
    for part in (m.real, m.imag):  # +-0 off the support, with the signs drawn
        part[:, off] = np.copysign(0.0, part[:, off])
    m[draw(arrays(bool, n))] = 0.0
    layout = draw(st.sampled_from([None, *_LAYOUTS]))
    m = _LAYOUTS[layout](m) if layout else m
    return m[0] if n == 1 and draw(st.booleans()) else m


# print_blob: a failure prints the @reproduce_failure blob that replays it.
@settings(max_examples=200, deadline=None, print_blob=True)
@given(
    structure=st.sampled_from(_GATHER_STRUCTURES),
    # S sets from a pool of three parameter pairs, so that a stage holds
    # both repeated and distinct sets.
    pool=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                  min_size=3, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    second=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    m=_gather_inputs(),
)
def test_stage_gather_is_bit_equal_to_the_full_formula_per_set(
    structure, pool, picks, second, m
):
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, inf - inf
        _check_two_gather_stages(structure, pool, picks, second, m)


def _assert_same_bits_but_nan_signs(got, want):
    """``_assert_same_bits``, except for the sign of a nan, which IEEE
    754-2019 (6.3) does not interpret and numpy's SIMD and scalar loops set
    differently: in each part the nan masks are equal, and every other entry,
    signed zeros included, is equal bit for bit."""
    for part in ("real", "imag"):
        g, w = getattr(got, part), getattr(want, part)
        nan = np.isnan(g)
        np.testing.assert_array_equal(nan, np.isnan(w))
        np.testing.assert_array_equal(g[~nan].view(np.uint64), w[~nan].view(np.uint64))


def _check_two_gather_stages(structure, pool, picks, second, m):
    # Only a direct call of the private kernel meets a nan: evolve refuses
    # non-finite input before any stage.
    kind, mode, variant, order = structure
    flat = m.reshape(-1, 36)
    local = ch._stage_sets(kind, tuple(pool[i] for i in picks), ch.PRODUCT,
                           variant, order)[0]
    # One input shared by every set, its support read off the data.
    x = m.reshape(1, -1, 36)
    reach = _reach(local, x)
    assert (reach is None) == (flat.shape[0] == 1)
    y = ch._gather(local, x)
    assert y.shape == (len(picks),) + flat.shape and y.flags.c_contiguous
    for got, gather in zip(y, _each_set(local)):
        _assert_same_bits_but_nan_signs(got, _gather_formula(gather, flat))
    if reach is not None:
        assert not y[..., ~reach].any()
    # One input per set (rows of the first stage, some repeated), as
    # evolve's collective stage, which reads its own support.
    rows = [i % len(picks) for i in second]
    coll = ch._stage_sets(kind, tuple((pool[i][0], pool[i][0]) for i in second), mode,
                          variant, order)[0]
    z = ch._gather(coll, y[rows])
    for got, gather, row in zip(z, _each_set(coll), rows):
        _assert_same_bits_but_nan_signs(got, _gather_formula(gather, y[row]))


def test_stage_gather_sums_a_lone_reached_column_in_operator_order():
    # Entry 23 reaches one column of this set; numpy sums the operators'
    # terms of a lone column pairwise, which rounds these differently.
    gather, _ = _one_set(ch.DEPHASING, 0.3, 0.6, ch.PRODUCT, ch.AS_PRINTED,
                         ch.PRINTED)
    m = np.zeros((2, 36), complex)
    m[:, 23] = (0.1 + 0.7j, 1 / 3 - 0.2j)
    y = ch._gather(gather, m[None])
    assert _reach(gather, m[None]).sum() == 1
    _assert_same_bits(y[0], _gather_formula(_each_set(gather)[0], m))


@pytest.mark.parametrize("kind, reach", [(ch.PHASE_FLIP, 6), (ch.DEPHASING, 6),
                                         (ch.BIT_TRIT_FLIP, 18)])
def test_figure_3_stages_reach_six_or_eighteen_columns(kind, reach):
    states = unruh_state(np.linspace(0.0, math.pi / 4, 101)).reshape(1, -1, 36)
    # Figure 3's global product spec at p = 0.3 applies this set twice.
    ops, _ = _one_set(kind, 0.3, 0.3, ch.PRODUCT, ch.CORRECTED, ch.REVERSED)
    y = ch._gather(ops, states)
    assert _reach(ops, states).sum() == _reach(ops, y).sum() == reach


@pytest.mark.parametrize("shared", [True, False])
def test_global_chunk_makes_one_gather_call_per_stage(shared, gather_calls):
    # A chunk of a global verify grid: 11 r values, 11 specs.
    states = unruh_state(np.linspace(0.0, math.pi / 4, 11))
    axis = np.linspace(0.0, 1.0, 11).tolist()
    specs = [ch.ChannelSpec(ch.PHASE_FLIP, ch.GLOBAL, 0.2, 0.4 if shared else q, q)
             for q in axis]
    out = ch.evolve(states, *spec_rows(specs))
    # The states' 6 nonzero entries, then the local results' 6, one per row.
    assert gather_calls == [(1 if shared else 11, (1, 11, 36), 6),
                            (11, (11, 11, 36), 6)]
    for got, spec in zip(out, specs):
        np.testing.assert_array_equal(got, ch.evolve(states, spec))


@pytest.mark.parametrize("kind, mode, variant, order", _GATHER_STRUCTURES)
def test_cached_gather_arrays_are_c_contiguous(kind, mode, variant, order):
    gather, _ = _one_set(kind, 0.3, 0.6, mode, variant, order)
    for array in gather:  # the rho index and both factors
        assert array.flags.c_contiguous


# --- spec lists: the same checks as a spec-by-spec loop -----------------------

def _trit_phase_flip_specs(ps):
    return [ch.ChannelSpec(ch.BIT_TRIT_PHASE_FLIP, ch.MULTILOCAL, p, p,
                           variant=ch.AS_PRINTED) for p in ps]


def test_spec_list_raises_the_first_incomplete_specs_defect():
    states = np.stack([unruh_state(r) for r in (0.0, 0.4)])
    specs = _trit_phase_flip_specs([0.0, 0.3, 0.6])
    with pytest.raises(CompletenessViolation) as err:
        ch.evolve(states, *spec_rows(specs))
    assert err.value.defect == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(CompletenessViolation) as alone:
        ch.evolve(states, specs[1])
    assert str(err.value) == str(alone.value)


@pytest.mark.parametrize("kind", [ch.PHASE_FLIP, ch.BIT_TRIT_PHASE_FLIP])
def test_spec_list_evolves_only_the_specs_before_the_first_failure(kind, monkeypatch):
    # Correlated collective sets are complete at p = 0 only.
    specs = [ch.ChannelSpec(kind, ch.GLOBAL, q, 0.4, p, ch.CORRELATED)
             for q, p in ((0.1, 0.0), (0.2, 0.3), (0.3, 0.0))]
    stages, stage = [], ch._stage

    def spy(sets, x):
        s = len(sets.v) if isinstance(sets, ch._GatherSet) else len(sets)
        stages.append(s)
        y = stage(sets, x)
        assert len(y) == s
        return y

    monkeypatch.setattr(ch, "_stage", spy)
    with pytest.raises(CompletenessViolation) as err:
        ch.evolve(unruh_state(0.2), *spec_rows(specs))
    assert stages == [1, 1]  # the local and the collective set of specs[0]
    with pytest.raises(CompletenessViolation) as alone:
        ch.evolve(unruh_state(0.2), specs[1])
    assert str(err.value) == str(alone.value)
    raw = ch.evolve(unruh_state(0.2), *spec_rows(specs),
                    allow_incomplete=True)
    assert stages[-2:] == [3, 3]
    for got, spec in zip(raw, specs):
        np.testing.assert_array_equal(
            got, ch.evolve(unruh_state(0.2), spec, allow_incomplete=True))
    # A list that fails at its first spec applies no set at all.
    stages.clear()
    with pytest.raises(CompletenessViolation) as err:
        ch.evolve(unruh_state(0.2), *spec_rows(specs[1:]))
    assert stages == []
    assert str(err.value) == str(alone.value)


def test_spec_list_with_incomplete_specs_still_validates_the_rest():
    states = np.stack([unruh_state(r) for r in (0.0, 0.4)])
    specs = _trit_phase_flip_specs([0.0, 0.3, 0.6])
    raw = ch.evolve(states, *spec_rows(specs), allow_incomplete=True)
    assert raw.shape == (3, 2, 6, 6) and raw.flags.writeable
    np.testing.assert_array_equal(raw[0], ch.evolve(states, specs[0]))
    # The p = 0 rows go through validation: a defect there is reported.
    states[1, 0, 1] += 3e-3
    with pytest.raises(NotHermitian, match="defect 3.000e-03"):
        ch.evolve(states, *spec_rows(specs), allow_incomplete=True)


def test_spec_list_raises_whichever_failure_comes_first():
    states = np.stack([unruh_state(r) for r in (0.0, 0.4)])
    states[1, 0, 1] += 3e-3
    with pytest.raises(NotHermitian):  # the p = 0 spec fails validation
        ch.evolve(states, *spec_rows(_trit_phase_flip_specs([0.0, 0.3])))
    with pytest.raises(CompletenessViolation):  # the p = 0.3 spec fails first
        ch.evolve(states, *spec_rows(_trit_phase_flip_specs([0.3, 0.0])))


def test_spec_list_of_trace_preserving_specs_is_read_only():
    specs = [ch.ChannelSpec(ch.DEPHASING, ch.GLOBAL, p, 0.2, 0.5) for p in (0.1, 0.9)]
    out = ch.evolve(unruh_state(0.3), *spec_rows(specs))
    assert out.shape == (2, 6, 6) and not out.flags.writeable


@pytest.mark.parametrize("params, failing", [
    (np.empty((0, 3)), None),
    ([[0.2, 0.3, 0.4], [0.5, 1.5, -0.1]], (1, 1)),
    ([[0.2, 0.3, 0.4], [-0.1, math.nan, 0.4], [2.0, 0.3, 0.4]], (1, 0)),
    ([[0.2, math.nan, 0.4]], (0, 1)),
    ([[0.2, 0.3, math.inf], [0.2, -math.inf, 0.4]], (0, 2)),
    ([[0.0, 0.0, 0.0], [1.0, 1.0, math.nextafter(1.0, 2.0)]], (1, 2)),
    ([[-5e-324, 0.3, 0.4]], (0, 0)),
])
def test_parameter_rows_raise_the_range_rule_text_of_their_first_failing_value(
    params, failing
):
    # An empty array raises as an empty spec list did; otherwise the first
    # failing (row, field), p1, p2, p within a row, raises what the spec of
    # that row would.
    spec = ch.ChannelSpec(ch.PHASE_FLIP, ch.MULTILOCAL)
    with pytest.raises(OutOfRange) as err:
        ch.evolve(unruh_state(0.1), spec, params)
    if failing is None:
        assert str(err.value) == "evolve takes one or more parameter rows"
        return
    row, field = failing
    with pytest.raises(OutOfRange) as want:
        ch.ChannelSpec(ch.PHASE_FLIP, ch.MULTILOCAL, *params[row])
    assert str(err.value) == str(want.value)
    assert f" {('p1', 'p2', 'p')[field]}=" in str(err.value)


@pytest.mark.parametrize("params", [[0.1, 0.2, 0.3], [[0.1, 0.2]],
                                    np.zeros((1, 3, 1))])
def test_parameter_rows_must_be_an_n_by_3_array(params):
    with pytest.raises(DimensionMismatch):
        ch.evolve(unruh_state(0.1), ch.ChannelSpec(ch.PHASE_FLIP, ch.MULTILOCAL),
                  params)


def test_stack_validation_names_first_failing_matrix():
    noiseless = ch.ChannelSpec(ch.PHASE_FLIP, ch.MULTILOCAL)
    states = np.stack([unruh_state(r) for r in (0.0, 0.2, 0.4, 0.6)])
    states[2, 0, 1] += 3e-3
    states[3, 0, 1] += 5e-3
    with pytest.raises(NotHermitian, match="defect 3.000e-03"):
        ch.evolve(states, noiseless)


# --- stages: built whole in one pass ----------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_STRUCTURES),
       st.lists(st.tuples(st.sampled_from(_TABLE_P) | st.floats(0.0, 1.0),
                          st.sampled_from(_TABLE_P) | st.floats(0.0, 1.0)),
                min_size=1, max_size=6),
       st.lists(st.integers(0, 5), min_size=1, max_size=12))
def test_stage_rows_are_the_one_pair_stages_bit_for_bit(structure, pool, picks):
    kind, mode, variant, order = structure
    # Pairs drawn from a pool, so that a stage holds repeats; a collective
    # set takes one p.
    pairs = tuple(pool[i % len(pool)] for i in picks)
    pairs = pairs if mode == ch.PRODUCT else tuple((a, a) for a, _ in pairs)
    stage, defects = ch._stage_sets(kind, pairs, mode, variant, order)
    gather = kind in _GATHER_KINDS
    if gather:
        assert stage.v.shape == stage.w.shape == (len(pairs),) + stage.rho_index.shape
    else:
        assert stage.shape[0] == len(pairs) and not stage.flags.writeable
    for s, (a, b) in enumerate(pairs):
        one, (defect,) = ch._stage_sets(kind, ((a, b),), mode, variant, order)
        if gather:
            np.testing.assert_array_equal(stage.rho_index, one.rho_index)
            _assert_same_bits(stage.v[s], one.v[0])
            _assert_same_bits(stage.w[s], one.w[0])
        else:
            # Each row is also the set qubit_channel and qutrit_channel make apart.
            plain = ch._tensor_set(ch.qubit_channel(kind, a),
                                   ch.qutrit_channel(kind, b, variant, order), mode)
            _assert_same_bits(stage[s], one[0])
            _assert_same_bits(stage[s], plain)
            assert defect == ch.completeness_defect(plain)
        assert type(defects[s]) is float and defects[s] == defect


def test_cached_incomplete_set_still_raises_with_its_defect():
    spec = ch.ChannelSpec(ch.DEPHASING, ch.MULTILOCAL, 0.3, 0.4,
                          variant=ch.AS_PRINTED)
    rho = unruh_state(0.2)
    defects = []
    for _ in range(2):
        with pytest.raises(CompletenessViolation) as err:
            ch.evolve(rho, spec)
        defects.append(err.value.defect)
    assert defects[0] == defects[1] == pytest.approx(2.0, abs=1e-12)


def test_stage_operators_are_read_only():
    ops, _ = _one_set(ch.BIT_TRIT_PHASE_FLIP, 0.3, 0.3, ch.PRODUCT, ch.CORRECTED,
                      ch.REVERSED)
    # The kernel's (K*6, 6) left factor is a view of the stage's array.
    stacked = ops.reshape(-1, 6)
    assert ops.shape == (8, 6, 6) and np.shares_memory(stacked, ops)
    for array in (ops[0], stacked):
        with pytest.raises(ValueError):
            array[0, 0] = 2.0
    gather, _ = _one_set(ch.PHASE_FLIP, 0.3, 0.3, ch.PRODUCT, ch.CORRECTED,
                         ch.REVERSED)
    for array in gather:  # the rho index and both factors
        with pytest.raises(ValueError):
            array[0, 0] = 2


# --- stage builds per evolve call -------------------------------------------

def test_results_do_not_depend_on_earlier_calls():
    kinds_modes = [(k, m) for k in ch.KINDS for m in ch.GLOBAL_MODES]
    specs = [ch.ChannelSpec(kind, ch.GLOBAL, 0.05 * i, 0.5, 0.03 * i, mode)
             for i in range(6) for kind, mode in kinds_modes]
    states = np.stack([unruh_state(r) for r in (0.0, 0.4, math.pi / 4)])
    alone = [ch.evolve(states, spec, allow_incomplete=True) for spec in specs[::-1]]
    for _ in range(2):  # each spec again, after all the others
        for spec, expected in zip(specs, alone[::-1]):
            np.testing.assert_array_equal(
                ch.evolve(states, spec, allow_incomplete=True), expected)


# (coupling, global mode, (p1, p2, p) rows, stages one evolve call builds);
# one row is evolved as its spec, without params.
_STAGE_BUILDS = {
    "multilocal": (ch.MULTILOCAL, ch.PRODUCT,
                   [(0.3, 0.8, 0.0), (0.5, 0.5, 0.0), (0.3, 0.8, 0.0)], 1),
    "linked product spec": (ch.GLOBAL, ch.PRODUCT, [(0.3, 0.3, 0.3)], 1),
    "linked product rows": (ch.GLOBAL, ch.PRODUCT,
                            [(0.3, 0.3, 0.3), (0.7, 0.7, 0.7)], 1),
    "correlated": (ch.GLOBAL, ch.CORRELATED, [(0.3, 0.3, 0.3), (0.7, 0.7, 0.7)], 2),
    "unlinked product": (ch.GLOBAL, ch.PRODUCT, [(0.3, 0.8, 0.45), (0.7, 0.7, 0.7)], 2),
    "repeated product row": (ch.GLOBAL, ch.PRODUCT,
                             [(0.3, 0.3, 0.3), (0.7, 0.7, 0.7), (0.3, 0.3, 0.3)], 2),
}


@pytest.mark.parametrize("case", _STAGE_BUILDS)
@pytest.mark.parametrize("kind", ch.KINDS)
def test_stage_builds_per_evolve_call(monkeypatch, kind, case):
    # The collective stage is the local one exactly when both hold the same
    # (p, p) pairs in product mode; otherwise each stage is built.
    coupling, mode, rows, builds = _STAGE_BUILDS[case]
    built = []
    build = ch._stage_sets
    monkeypatch.setattr(ch, "_stage_sets", lambda *a: built.append(a) or build(*a))
    spec = ch.ChannelSpec(kind, coupling, *rows[0], global_mode=mode)
    states = unruh_state(np.linspace(0.0, math.pi / 4, 3))
    if len(rows) == 1:
        evolved = ch.evolve(states, spec, allow_incomplete=True)[None]
    else:
        evolved = ch.evolve(states, spec, np.array(rows), allow_incomplete=True)
    assert len(built) == builds
    for (p1, p2, p), row in zip(rows, evolved, strict=True):
        row_spec = replace(spec, p1=p1, p2=p2, p=p)
        for got, m in zip(row, states, strict=True):
            _assert_same_bits(got, _kraus_oracle(m, row_spec))


# --- the Choi matrix of every 6x6 set ----------------------------------------

@pytest.mark.parametrize("kind", ch.KINDS)
@pytest.mark.parametrize("variant", ch.VARIANTS)
@pytest.mark.parametrize("order", [ch.PRINTED, ch.REVERSED])
@pytest.mark.parametrize("mode", ch.GLOBAL_MODES)
def test_choi_matrix_is_psd_and_traces_to_identity_iff_complete(
    kind, variant, order, mode
):
    # J = sum vec(E) vec(E)^dag is PSD for any operator set, and its trace
    # over the output index is conj(sum E^dag E): I exactly when the set
    # is complete (Choi 1975).
    for p in (0.0, 0.3, 0.7, 1.0):
        for ops in (ch.collective_set(kind, p, mode, variant, order),
                    _paper_set(kind, p, 1 - p, ch.PRODUCT, variant, order)):
            vecs = np.stack([e.reshape(-1) for e in ops])
            choi = vecs.T @ vecs.conj()
            assert np.linalg.eigvalsh(choi).min() >= -1e-12
            traced = np.einsum("ijil->jl", choi.reshape(6, 6, 6, 6))
            off = np.abs(traced - np.eye(6)).max()
            defect = ch.completeness_defect(ops)
            assert (off <= 1e-12) == (defect <= 1e-12)
            assert off == pytest.approx(defect, abs=1e-14)
