import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unruhsim import channels
from unruhsim.channels import ChannelSpec
from unruhsim.entanglement import (
    PtSpectrum,
    negativity,
    partial_transpose_qubit,
    pt_spectra,
)
from unruhsim.errors import DimensionMismatch, NotHermitian
from unruhsim.state import (
    hermitian_eigenvalues,
    hermiticity_defect,
    unruh_state,
    validate_density,
)

R_GRID = np.linspace(0.0, math.pi / 4, 101)


def test_partial_transpose_block_positions():
    m = np.arange(36, dtype=complex).reshape(6, 6)
    pt = partial_transpose_qubit(m)
    np.testing.assert_array_equal(pt[0:3, 0:3], m[0:3, 0:3])
    np.testing.assert_array_equal(pt[3:6, 3:6], m[3:6, 3:6])
    np.testing.assert_array_equal(pt[0:3, 3:6], m[3:6, 0:3])
    np.testing.assert_array_equal(pt[3:6, 0:3], m[0:3, 3:6])


@pytest.mark.parametrize("shape", [(2, 18), (36, 1), (36,)])
def test_partial_transpose_refuses_36_entries_in_another_shape(shape):
    m = np.arange(36, dtype=complex).reshape(shape)
    for transpose in (partial_transpose_qubit,
                      lambda m: pt_spectra(m, validated=True)):
        with pytest.raises(DimensionMismatch,
                           match=re.escape(f"expected 6x6 matrices, got shape {shape}")):
            transpose(m)


def test_partial_transpose_is_involution():
    m = unruh_state(0.37)
    np.testing.assert_array_equal(
        partial_transpose_qubit(partial_transpose_qubit(m)), m
    )


def test_partial_transpose_preserves_trace_and_hermiticity():
    m = unruh_state(0.5)
    pt = partial_transpose_qubit(m)
    assert np.trace(pt) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(pt, pt.conj().T, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(complex, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4)
                  .map(lambda shape: shape + (6, 6)),
                  elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
def test_partial_transpose_keeps_the_hermiticity_defect_bit_for_bit(m):
    # The transpose pairs every entry with the same partner as before, so
    # a validated matrix needs no second check of its partial transpose.
    with np.errstate(over="ignore"):  # a huge difference may round to inf
        got = np.asarray(hermiticity_defect(partial_transpose_qubit(m)))
        want = np.asarray(hermiticity_defect(m))
    assert got.tobytes() == want.tobytes()


def _block_swap(m):
    out = m.copy()
    out[..., 0:3, 3:6] = m[..., 3:6, 0:3]
    out[..., 3:6, 0:3] = m[..., 0:3, 3:6]
    return out


@pytest.mark.parametrize("shape", [(6, 6), (1, 6, 6), (7, 6, 6), (2, 3, 6, 6)])
def test_partial_transpose_moves_every_bit_as_the_block_swap_does(shape):
    rng = np.random.default_rng(3200 + len(shape))
    entries = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 0.25, -3e-310]
    m = np.empty(shape, dtype=complex)
    m.real = rng.choice(entries, size=shape)
    m.imag = rng.choice(entries, size=shape)
    pt = partial_transpose_qubit(m)
    assert pt.shape == shape and pt.tobytes() == _block_swap(m).tobytes()


def test_raw_non_hermitian_matrices_are_still_checked():
    m = np.array(unruh_state(0.3))
    m[0, 4] += 2e-3
    with pytest.raises(NotHermitian, match="defect 2.000e-03"):
        negativity(m)
    with pytest.raises(NotHermitian, match="defect 2.000e-03"):
        pt_spectra(np.stack([unruh_state(0.1), m]))


def test_bell_like_state_has_max_negativity():
    spec = negativity(unruh_state(0.0))
    assert isinstance(spec, PtSpectrum)
    assert spec.negativity == pytest.approx(0.5, abs=1e-12)
    assert spec.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert len(spec.eigenvalues) == 6


def test_separable_state_has_zero_negativity():
    assert negativity(validate_density(np.eye(6) / 6)).negativity == 0.0
    diag = validate_density(np.diag([0.4, 0.1, 0.1, 0.2, 0.1, 0.1]))
    assert negativity(diag).negativity == 0.0


def test_infinite_acceleration_negativity():
    assert negativity(unruh_state(math.pi / 4)).negativity == pytest.approx(
        0.25, abs=1e-12
    )


@pytest.mark.parametrize("r", [float(r) for r in R_GRID])
def test_closed_form_half_cos_squared(r):
    # Undecohered state: N(r) = cos^2(r) / 2, single negative eigenvalue.
    spec = negativity(unruh_state(r))
    assert spec.negativity == pytest.approx(math.cos(r) ** 2 / 2, abs=1e-10)
    neg_count = sum(1 for x in spec.eigenvalues if x < -1e-12)
    assert neg_count == 1
    assert spec.min_eigenvalue == pytest.approx(-spec.negativity, abs=1e-12)


def _random_local_unitary(rng):
    # Haar-ish local unitaries via QR of Gaussian matrices.
    def haar(n):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    return np.kron(haar(2), haar(3))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, math.pi / 4))
def test_negativity_invariant_under_local_unitaries(seed, r):
    rng = np.random.default_rng(seed)
    rho = unruh_state(r)
    u = _random_local_unitary(rng)
    rotated = u @ rho @ u.conj().T
    assert negativity(rotated).negativity == pytest.approx(
        negativity(rho).negativity, abs=1e-9
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_negativity_bounded(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    n = negativity(rho).negativity
    assert 0.0 <= n <= 0.5 + 1e-12


def test_accepts_raw_arrays():
    m = unruh_state(0.2)
    assert negativity(np.array(m)).negativity == pytest.approx(
        negativity(unruh_state(0.2)).negativity
    )


_INF_AT_2_2 = np.stack([np.eye(6, dtype=complex) / 6] * 2)
_INF_AT_2_2[1, 2, 2] = np.inf


@pytest.mark.parametrize("evaluate, m, error, message", [
    (negativity, np.full((6, 6), np.nan), ValueError, "non-finite"),
    (negativity, np.full((6, 6), np.inf), ValueError, "non-finite"),
    (negativity, np.eye(4) / 4, DimensionMismatch, r"shape \(4, 4\)"),
    (negativity, np.stack([np.eye(6) / 6] * 2), DimensionMismatch,
     r"shape \(2, 6, 6\)"),
    # A NaN defect is not within tolerance.
    (pt_spectra, np.stack([np.eye(6) / 6, np.full((6, 6), np.nan)]), NotHermitian,
     "defect nan"),
    # An inf entry gives a nan defect, without a RuntimeWarning, which
    # pytest would raise in its place.
    (pt_spectra, _INF_AT_2_2, NotHermitian, "defect nan"),
    (hermitian_eigenvalues, _INF_AT_2_2, NotHermitian, "defect nan"),
], ids=["nan", "inf", "4x4", "stack", "pt-spectra-nan", "pt-spectra-inf",
        "hermitian-eigenvalues-inf"])
def test_bad_raw_input_raises_package_errors(evaluate, m, error, message):
    with pytest.raises(error, match=message):
        evaluate(m)


def test_every_hermiticity_check_gives_one_text():
    m = np.array(unruh_state(0.3))
    m[0, 4] += 2e-3
    texts = set()
    for check in (validate_density, hermitian_eigenvalues, pt_spectra,
                  negativity):
        with pytest.raises(NotHermitian) as failure:
            check(m)
        texts.add(str(failure.value))
    assert texts == {"hermiticity defect 2.000e-03 exceeds 1.000e-12"}


@pytest.mark.parametrize("m", [np.eye(4) / 4, np.ones((2, 3)), np.empty((0, 6, 6)),
                               np.ones((2, 18)) / 6, np.ones(36) / 6,
                               np.ones((36, 1)) / 6],
                         ids=["4x4", "2x3", "empty-stack", "2x18", "36", "36x1"])
def test_every_matrix_check_refuses_a_wrong_shape_by_one_rule(m, monkeypatch):
    built = []
    stage_sets = channels._stage_sets
    monkeypatch.setattr(channels, "_stage_sets",
                        lambda *args: built.append(args) or stage_sets(*args))
    trace_preserving = ChannelSpec(channels.PHASE_FLIP, channels.GLOBAL, 0.1, 0.2, 0.3)
    as_printed = ChannelSpec(channels.DEPHASING, channels.MULTILOCAL, 0.3, 0.4,
                             variant=channels.AS_PRINTED)
    checks = (validate_density, hermiticity_defect, hermitian_eigenvalues,
              partial_transpose_qubit, negativity,
              lambda m: pt_spectra(m, validated=True),
              lambda m: channels.evolve(m, trace_preserving),
              lambda m: channels.evolve(m, as_printed, allow_incomplete=True),
              lambda m: channels.multilocal_evolve(m, channels.PHASE_FLIP, 0.1, 0.2),
              lambda m: channels.global_evolve(m, channels.BIT_TRIT_PHASE_FLIP,
                                               0.1, 0.2, 0.3))
    for check in checks:
        with pytest.raises(DimensionMismatch) as failure:
            check(m)
        assert str(failure.value) == f"expected 6x6 matrices, got shape {m.shape}"
    assert built == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("shape", [(6, 6), (3, 6, 6)], ids=["one", "stack"])
def test_evolve_refuses_a_non_finite_input_before_any_stage(bad, shape, monkeypatch):
    built = []
    stage_sets = channels._stage_sets
    monkeypatch.setattr(channels, "_stage_sets",
                        lambda *args: built.append(args) or stage_sets(*args))
    m = np.broadcast_to(unruh_state(0.3), shape).copy()
    m[(-1, 2, 4)[-m.ndim:]] = bad
    trace_preserving = ChannelSpec(channels.PHASE_FLIP, channels.GLOBAL, 0.1, 0.2, 0.3)
    # As printed, dephasing is not trace preserving: its result goes unchecked.
    as_printed = ChannelSpec(channels.DEPHASING, channels.MULTILOCAL, 0.3, 0.4,
                             variant=channels.AS_PRINTED)
    rows = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])
    checks = (lambda m: channels.evolve(m, trace_preserving),
              lambda m: channels.evolve(m, trace_preserving, rows),
              lambda m: channels.evolve(m, as_printed, allow_incomplete=True),
              lambda m: channels.evolve(m, as_printed, rows, allow_incomplete=True))
    for check in checks:
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            check(m)
    assert built == []
