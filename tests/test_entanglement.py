import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unruhsim.entanglement import (
    PtSpectrum,
    negativity,
    partial_transpose_qubit,
    pt_spectra,
)
from unruhsim.errors import DimensionMismatch, NotHermitian
from unruhsim.linalg import hermiticity_defect
from unruhsim.state import unruh_state, validate_density

R_GRID = np.linspace(0.0, math.pi / 4, 101)


def test_partial_transpose_block_positions():
    m = np.arange(36, dtype=complex).reshape(6, 6)
    pt = partial_transpose_qubit(m)
    np.testing.assert_array_equal(pt[0:3, 0:3], m[0:3, 0:3])
    np.testing.assert_array_equal(pt[3:6, 3:6], m[3:6, 3:6])
    np.testing.assert_array_equal(pt[0:3, 3:6], m[3:6, 0:3])
    np.testing.assert_array_equal(pt[3:6, 0:3], m[0:3, 3:6])


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


@pytest.mark.parametrize("evaluate, m, error, message", [
    (negativity, np.full((6, 6), np.nan), ValueError, "non-finite"),
    (negativity, np.full((6, 6), np.inf), ValueError, "non-finite"),
    (negativity, np.eye(4) / 4, DimensionMismatch, r"shape \(4, 4\)"),
    (negativity, np.stack([np.eye(6) / 6] * 2), DimensionMismatch,
     r"shape \(2, 6, 6\)"),
    # A NaN defect is not within tolerance.
    (pt_spectra, np.stack([np.eye(6) / 6, np.full((6, 6), np.nan)]), NotHermitian,
     "defect nan"),
], ids=["nan", "inf", "4x4", "stack", "pt-spectra-nan"])
def test_bad_raw_input_raises_package_errors(evaluate, m, error, message):
    with pytest.raises(error, match=message):
        evaluate(m)
