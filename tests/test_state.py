import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unruhsim import state
from unruhsim.channels import PHASE_FLIP, ChannelSpec
from unruhsim.errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NotHermitian,
    OutOfRange,
    TraceDeviation,
)

R_GRID = np.linspace(0.0, state.R_MAX, 101)


def test_bell_limit_at_r_zero():
    m = state.unruh_state(0.0)
    expected = np.zeros((6, 6), dtype=complex)
    for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
        expected[i, j] = 0.5
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_infinite_acceleration_limit():
    m = state.unruh_state(math.pi / 4)
    for i, j in [(1, 1), (1, 3), (3, 1), (3, 3), (2, 2), (5, 5)]:
        assert m[i, j] == pytest.approx(0.25, abs=1e-15)
    assert np.count_nonzero(m) == 6


@pytest.mark.parametrize("r", [float(r) for r in R_GRID])
def test_valid_density_across_range(r):
    rho = state.unruh_state(r)
    assert abs(np.trace(rho) - 1.0) <= 1e-12


@pytest.mark.parametrize("r", [-0.01, math.pi / 4 + 0.01, 2.0])
def test_out_of_range_rejected(r):
    with pytest.raises(OutOfRange):
        state.unruh_state(r)


def test_rank_profile():
    for r in R_GRID:
        eig = np.linalg.eigvalsh(state.unruh_state(float(r)))
        rank = int((eig > 1e-10).sum())
        assert rank == (1 if r == 0.0 else 3)


def test_validate_maximally_mixed():
    rho = state.validate_density(np.eye(6) / 6)
    assert type(rho) is np.ndarray and rho.shape == (6, 6)
    assert not rho.flags.writeable


def test_validate_detects_each_violation():
    bad = np.diag([1.0, 0, 0, 0, 0, -1e-3]).astype(complex)
    bad /= np.trace(bad).real
    with pytest.raises(NegativeEigenvalue):
        state.validate_density(bad)

    nh = np.eye(6, dtype=complex) / 6
    nh[0, 1] = 1e-3
    with pytest.raises(NotHermitian):
        state.validate_density(nh)

    with pytest.raises(TraceDeviation):
        state.validate_density(np.eye(6, dtype=complex) / 3)


def test_validated_matrix_is_frozen():
    rho = state.unruh_state(0.2)
    with pytest.raises(ValueError):
        rho[0, 0] = 1.0


def test_validate_rejects_an_empty_stack():
    with pytest.raises(DimensionMismatch,
                       match=r"^expected 6x6 matrices, got shape \(0, 6, 6\)$"):
        state.validate_density(np.empty((0, 6, 6)))


def test_validate_takes_a_stack_of_stacks_in_its_own_shape():
    stack = state.unruh_state(np.linspace(0.0, state.R_MAX, 6)).reshape(2, 3, 6, 6)
    frozen = state.validate_density(stack)
    assert frozen.shape == (2, 3, 6, 6) and not frozen.flags.writeable
    assert frozen.tobytes() == stack.tobytes()


@pytest.mark.parametrize("kind", [NotHermitian, TraceDeviation, NegativeEigenvalue],
                         ids=lambda kind: kind.__name__)
def test_a_stack_of_stacks_names_its_bad_matrix_as_the_flat_stack_does(kind):
    stack = np.array(state.unruh_state(np.linspace(0.0, state.R_MAX, 6))).reshape(2, 3, 6, 6)
    stack[1, 2] = _failing(kind)
    with pytest.raises(kind) as nested:
        state.validate_density(stack)
    with pytest.raises(kind) as flat:
        state.validate_density(stack.reshape(-1, 6, 6))
    assert str(nested.value) == str(flat.value)


def test_an_r_axis_gives_the_stack_of_its_states_bit_for_bit():
    stack = state.unruh_state(R_GRID)
    assert stack.shape == (101, 6, 6) and not stack.flags.writeable
    alone = np.stack([state.unruh_state(r) for r in R_GRID.tolist()])
    assert stack.tobytes() == alone.tobytes()
    assert state.unruh_state([0.3]).tobytes() == state.unruh_state(0.3).tobytes()


def test_an_r_axis_checks_every_r_and_its_own_shape():
    with pytest.raises(OutOfRange, match=r"^acceleration parameter r=nan outside"):
        state.unruh_state(np.array([0.1, math.nan]))
    with pytest.raises(DimensionMismatch) as err:
        state.unruh_state([[0.1, 0.2]])
    assert str(err.value) == "expected one r or an r axis, got shape (1, 2)"


# Every shape but a nonempty (..., 6, 6): non-square, empty, square of other
# sizes, and stacks of no 6x6 matrix.
_NOT_6X6 = (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3)), np.empty((0, 0)),
            np.empty((3, 0, 0)), np.ones((1, 1)), np.eye(2), np.eye(7),
            np.ones((5, 2, 2)), np.empty((0, 6, 6)), np.empty((2, 0, 6, 6)))


def test_hermiticity_defect_rejects_any_shape_but_6x6():
    for bad in _NOT_6X6:
        with pytest.raises(DimensionMismatch, match=r"^expected 6x6 matrices, got shape"):
            state.hermiticity_defect(bad)


# nan, inf and finite entries whose differences overflow, drawn rarely
_RARE = [math.nan, -math.nan, math.inf, -math.inf, 1e308, -1e308]
_COMMON = [-0.0, 0.0, 0.5, -0.25, 1 / 3]


def _drawn(shape, rng, rare):
    """Complex entries from _RARE with probability ``rare``, else from _COMMON."""
    p = [rare / len(_RARE)] * len(_RARE) + [(1 - rare) / len(_COMMON)] * len(_COMMON)
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = rng.choice(_RARE + _COMMON, size=(2, *shape), p=p)
    return m


def _same_floats(got, want):
    """Equal bits, except for a nan's sign and payload, which numpy's SIMD and
    scalar loops may set differently and no caller reads."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert got.shape == want.shape and (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_hermiticity_defect_reads_one_triangle_bit_for_bit():
    rng = np.random.default_rng(1706)
    for shape, rare in itertools.product([(6, 6), (40, 6, 6), (3, 5, 6, 6)],
                                         [0.0, 0.01, 0.1]):
        h = _drawn(shape, rng, rare)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.abs(h - np.swapaxes(h, -1, -2).conj()).max(axis=(-2, -1))
            got = state.hermiticity_defect(h)
        assert isinstance(got, float) if h.ndim == 2 else got.shape == shape[:-2]
        _same_floats(got, want)


# --- the checked eigensolve ---------------------------------------------------

def _embedded(block):
    """``block`` as the top-left block of an otherwise zero 6x6 matrix."""
    m = np.zeros((6, 6), dtype=complex)
    m[:len(block), :len(block)] = block
    return m


def _complex_6x6():
    finite = st.floats(-1.0, 1.0, allow_nan=False)
    return st.builds(lambda re, im: re + 1j * im,
                     hnp.arrays(np.float64, (6, 6), elements=finite),
                     hnp.arrays(np.float64, (6, 6), elements=finite))


def test_hermitian_eigenvalues_rejects_any_shape_but_6x6():
    for bad in _NOT_6X6:
        with pytest.raises(DimensionMismatch, match=r"^expected 6x6 matrices, got shape"):
            state.hermitian_eigenvalues(bad)


def test_hermitian_eigenvalues_examples():
    # Each block's spectrum, padded with the zeros of the rest of the matrix.
    for block, want in ((np.diag([3.0, 1.0, 2.0]), [0, 0, 0, 1, 2, 3]),
                        ([[0, 1], [1, 0]], [-1, 0, 0, 0, 0, 1]),
                        ([[0, 0.5], [0.5, 0]], [-0.5, 0, 0, 0, 0, 0.5])):
        np.testing.assert_allclose(state.hermitian_eigenvalues(_embedded(block)), want,
                                   atol=1e-15)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        state.hermitian_eigenvalues(_embedded([[0, 1], [0, 0]]))


@settings(max_examples=50)
@given(hnp.arrays(np.float64, (6,), elements=st.floats(-5, 5, allow_nan=False)))
def test_diagonal_eigenvalues_exact(d):
    got = state.hermitian_eigenvalues(np.diag(d).astype(complex))
    np.testing.assert_allclose(got, np.sort(d), atol=1e-14)


@settings(max_examples=50)
@given(_complex_6x6(), st.floats(-2, 2, allow_nan=False))
def test_eigenvalue_sum_and_shift(m, alpha):
    h = m + m.conj().T
    eig = state.hermitian_eigenvalues(h)
    assert abs(eig.sum() - np.trace(h).real) <= 1e-10
    shifted = state.hermitian_eigenvalues(h + alpha * np.eye(6))
    np.testing.assert_allclose(shifted, eig + alpha, atol=1e-10)


# --- the PSD certificate against the eigensolver-only rule --------------------

def _eigensolver_rule(m):
    """validate_density's rule decided by a finiteness scan of the whole
    input, its shape, then the eigensolver alone: the (exception type,
    text) for the first failing matrix, or None."""
    ms = np.asarray(m, dtype=complex)
    ms = ms[np.newaxis] if ms.ndim == 2 else ms
    if not np.isfinite(ms).all():
        return ValueError, "matrix contains non-finite entries"
    if ms.shape[1:] != (6, 6) or not len(ms):
        return DimensionMismatch, f"expected 6x6 matrices, got shape {np.shape(m)}"
    h_defect = np.abs(ms - np.swapaxes(ms, 1, 2).conj()).max(axis=(1, 2))
    tr_defect = np.abs(ms.trace(axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh(ms)[:, 0]
    failing = (h_defect > 1e-12) | (tr_defect > 1e-12) | (min_eig < -1e-10)
    if not failing.any():
        return None
    i = failing.argmax()
    if h_defect[i] > 1e-12:
        return NotHermitian, f"hermiticity defect {h_defect[i]:.3e} exceeds 1.000e-12"
    if tr_defect[i] > 1e-12:
        return TraceDeviation, (f"trace deviates from 1 by {tr_defect[i]:.3e} "
                                "(tolerance 1.000e-12)")
    return NegativeEigenvalue, f"minimum eigenvalue {min_eig[i]:.3e} below -1.000e-10"


def _assert_same_verdict(m):
    expected = _eigensolver_rule(m)
    try:
        out = state.validate_density(m)
    except (NotHermitian, TraceDeviation, NegativeEigenvalue, DimensionMismatch,
            ValueError) as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is None
        assert out.tobytes() == np.asarray(m, dtype=complex).tobytes()


def _unitaries(count, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, 6, 6)) + 1j * rng.normal(size=(count, 6, 6))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def _with_min_eigenvalue(min_eig, u):
    """U diag(lambda) U^H, made exactly Hermitian, of trace 1 up to
    rounding, with lambda_min = ``min_eig`` and a second eigenvalue 0."""
    lam = np.array([min_eig, 0.0, 0.1, 0.2, 0.3, 0.4 - min_eig])
    a = (u * lam[np.newaxis, :]) @ np.swapaxes(u, -1, -2).conj()
    return (a + np.swapaxes(a, -1, -2).conj()) / 2


_TOL = state.PSD_TOL
# Exactly -PSD_TOL, the rule's own edge, is decided by rounding: the
# eigensolver puts about half of these matrices below the bound.
_MIN_EIGENVALUES = {
    "zero": 0.0,
    "-1e-16": -1e-16,
    "-tol": -_TOL,
    "-tol*(1+1e-3)": -_TOL * (1 + 1e-3),
    "-tol*(1-1e-3)": -_TOL * (1 - 1e-3),
    # Half the bound, the Gershgorin slack edge; these rotated states are far
    # from diagonally dominant, so the eigensolver decides either side of it.
    "-tol/2*(1+1e-3)": -_TOL / 2 * (1 + 1e-3),
    "-tol/2*(1-1e-3)": -_TOL / 2 * (1 - 1e-3),
}


@pytest.mark.parametrize("min_eig", _MIN_EIGENVALUES.values(), ids=_MIN_EIGENVALUES)
def test_certificate_gives_the_eigensolver_verdict_on_each_matrix(min_eig):
    for m in _with_min_eigenvalue(min_eig, _unitaries(24, 1801)):
        _assert_same_verdict(m)


@pytest.mark.parametrize("min_eig", _MIN_EIGENVALUES.values(), ids=_MIN_EIGENVALUES)
def test_certificate_gives_the_eigensolver_verdict_on_a_stack(min_eig):
    stack = _with_min_eigenvalue(min_eig, _unitaries(24, 1802))
    _assert_same_verdict(stack)
    # The same matrix behind valid ones, and every value in one stack.
    valid = _with_min_eigenvalue(0.0, _unitaries(5, 1803))
    _assert_same_verdict(np.concatenate([valid, stack[:1]]))
    mixed = [_with_min_eigenvalue(v, u)
             for v, u in zip(_MIN_EIGENVALUES.values(), _unitaries(7, 1804))]
    _assert_same_verdict(np.stack(mixed))


def test_certificate_gives_the_eigensolver_verdict_on_rank_one_states():
    rng = np.random.default_rng(1805)
    psi = rng.normal(size=(16, 6)) + 1j * rng.normal(size=(16, 6))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    pure = psi[:, :, np.newaxis] * psi[:, np.newaxis, :].conj()
    for m in pure:
        _assert_same_verdict(m)
    _assert_same_verdict(pure)
    bell = np.array(state.unruh_state(0.0))
    _assert_same_verdict(bell)
    _assert_same_verdict(np.stack([bell] * 3))


def _failing(kind):
    m = np.eye(6, dtype=complex) / 6
    if kind is NotHermitian:
        m[0, 1] = 1e-3
    elif kind is TraceDeviation:
        m *= 2
    else:
        m[0, 0], m[5, 5] = -1e-3, 1 / 3 + 1e-3
    return m


@pytest.mark.parametrize("order", [
    (NotHermitian, TraceDeviation, NegativeEigenvalue),
    (TraceDeviation, NegativeEigenvalue, NotHermitian),
    (NegativeEigenvalue, NotHermitian, TraceDeviation),
])
def test_a_stack_of_failures_names_the_first_as_the_eigensolver_does(order):
    valid = np.array(state.unruh_state(np.linspace(0.0, state.R_MAX, 4)))
    stack = np.concatenate([valid[:2], [_failing(order[0])], valid[2:3],
                            [_failing(order[1])], [_failing(order[2])], valid[3:]])
    _assert_same_verdict(stack)
    with pytest.raises(order[0]):
        state.validate_density(stack)
    # One failure at a time, at each position.
    for kind in order:
        for i in (0, 3, len(valid)):
            _assert_same_verdict(np.insert(valid, i, _failing(kind), axis=0))


@pytest.mark.parametrize("where", [(2, 2), (1, 3)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("imag", [False, True], ids=["real", "imag"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
def test_a_non_finite_entry_gives_the_eigensolver_verdict(value, imag, where):
    m = np.eye(6, dtype=complex) / 6
    m[where] = complex(0.0, value) if imag else complex(value, 0.0)
    assert _eigensolver_rule(m)[0] is ValueError
    _assert_same_verdict(m)
    # Behind a non-Hermitian matrix in a stack, the non-finite entry still wins.
    stack = np.array(state.unruh_state(np.linspace(0.0, state.R_MAX, 5)))
    stack[1], stack[3] = _failing(NotHermitian), m
    _assert_same_verdict(stack)
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        state.validate_density(stack)


@pytest.mark.parametrize("m, error", [
    (np.full((4, 4), np.nan), ValueError),
    (np.full((2, 3), np.inf), ValueError),
    (np.ones((2, 3)), DimensionMismatch),
    (np.empty((0, 6, 6)), DimensionMismatch),
], ids=["nan-4x4", "inf-2x3", "finite-2x3", "empty-stack"])
def test_a_wrong_shape_gives_the_eigensolver_verdict(m, error):
    assert _eigensolver_rule(m)[0] is error
    _assert_same_verdict(m)


def test_finite_entries_whose_defect_overflows_are_not_hermitian():
    m = np.eye(6, dtype=complex) / 6
    m[0, 1], m[1, 0] = 1e308, -1e308
    with np.errstate(over="ignore"):  # their difference rounds to inf
        assert _eigensolver_rule(m)[0] is NotHermitian
        _assert_same_verdict(m)
        with pytest.raises(NotHermitian, match="^hermiticity defect inf exceeds"):
            state.validate_density(m)


# --- how often the eigensolver runs --------------------------------------------

def _count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_a_valid_stack_is_certified_without_the_eigensolver(monkeypatch):
    stack = np.array(state.unruh_state(R_GRID))
    counts = _count_calls(monkeypatch, "eigvalsh", "cholesky")
    state.validate_density(stack)
    assert counts == {"eigvalsh": 0, "cholesky": 0}


def test_a_psd_state_that_is_not_diagonally_dominant_takes_one_eigensolver_call(
    monkeypatch
):
    m = np.zeros((6, 6), dtype=complex)
    m[1:3, 1:3] = [[0.8, 0.39], [0.39, 0.2]]  # row 2's slack: 0.4 - 0.59 < 0
    counts = _count_calls(monkeypatch, "eigvalsh")
    _assert_same_verdict(m)
    assert counts == {"eigvalsh": 2}  # the reference rule's and validation's


# A diagonal entry d < 0 has slack 3d: certified down to d = -PSD_TOL/6.
@pytest.mark.parametrize("d, calls", [
    (-1e-11, 0), (-1.6e-11, 0), (-1.7e-11, 1), (-0.9e-10, 1), (-1.1e-10, 1),
])
def test_a_diagonal_state_is_certified_down_to_the_slack_edge(monkeypatch, d, calls):
    m = np.diag([d, 0.2, 0.2, 0.2, 0.2, 0.2 - d]).astype(complex)
    counts = _count_calls(monkeypatch, "eigvalsh")
    _assert_same_verdict(m)
    assert counts == {"eigvalsh": 1 + calls}  # the reference rule's, then validation's


def test_a_negative_eigenvalue_takes_one_eigensolver_call(monkeypatch):
    stack = np.array(state.unruh_state(R_GRID))
    stack[40] = _failing(NegativeEigenvalue)
    counts = _count_calls(monkeypatch, "eigvalsh")
    with pytest.raises(NegativeEigenvalue):
        state.validate_density(stack)
    assert counts == {"eigvalsh": 1}


# --- the range rule's text ------------------------------------------------------

@pytest.mark.parametrize("value", [math.nan, -0.1, 0.9])
@pytest.mark.parametrize("as_type", [np.float64, np.array], ids=["float64", "0-d"])
def test_an_out_of_range_r_reads_the_same_for_any_number_type(value, as_type):
    with pytest.raises(OutOfRange) as plain:
        state.unruh_state(value)
    with pytest.raises(OutOfRange) as other:
        state.unruh_state(as_type(value))
    assert str(other.value) == str(plain.value)
    assert str(plain.value) == f"acceleration parameter r={value!r} outside [0, pi/4]"


@pytest.mark.parametrize("value", [math.nan, -0.1, 1.5])
@pytest.mark.parametrize("as_type", [np.float64, np.array], ids=["float64", "0-d"])
def test_an_out_of_range_p1_reads_the_same_for_any_number_type(value, as_type):
    text = f"decoherence parameter p1={value!r} outside [0, 1]"
    for p1 in (value, as_type(value)):
        with pytest.raises(OutOfRange, match=f"^{re.escape(text)}$"):
            ChannelSpec(PHASE_FLIP, "multilocal", p1=p1)


def test_an_out_of_range_int_reads_as_a_float():
    with pytest.raises(OutOfRange, match=r"^decoherence parameter p1=2\.0 outside"):
        ChannelSpec(PHASE_FLIP, "multilocal", p1=2)
