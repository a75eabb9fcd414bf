import math

import numpy as np
import pytest

from unruhsim import state
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
    with pytest.raises(OutOfRange):
        state.validate_density(np.empty((0, 6, 6)))


def test_an_r_axis_gives_the_stack_of_its_states_bit_for_bit():
    stack = state.unruh_state(R_GRID)
    assert stack.shape == (101, 6, 6) and not stack.flags.writeable
    alone = np.stack([state.unruh_state(r) for r in R_GRID.tolist()])
    assert stack.tobytes() == alone.tobytes()
    assert state.unruh_state([0.3]).tobytes() == state.unruh_state(0.3).tobytes()


def test_an_r_axis_checks_every_r_and_its_own_shape():
    with pytest.raises(OutOfRange, match=r"^acceleration parameter r=nan outside"):
        state.unruh_state(np.array([0.1, math.nan]))
    with pytest.raises(DimensionMismatch):
        state.unruh_state([[0.1, 0.2]])
