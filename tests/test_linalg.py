import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unruhsim import linalg
from unruhsim.errors import DimensionMismatch, NotHermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _complex_matrices(n):
    finite = st.floats(-1.0, 1.0, allow_nan=False)
    shape = (n, n)
    return st.builds(
        lambda re, im: re + 1j * im,
        hnp.arrays(np.float64, shape, elements=finite),
        hnp.arrays(np.float64, shape, elements=finite),
    )


def test_dimension_mismatch():
    for not_square in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))):
        with pytest.raises(DimensionMismatch):
            linalg.hermiticity_defect(not_square)
        with pytest.raises(DimensionMismatch):
            linalg.hermitian_eigenvalues(not_square)


def test_hermitian_eigenvalues_examples():
    np.testing.assert_allclose(
        linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3]
    )
    np.testing.assert_allclose(linalg.hermitian_eigenvalues(SX), [-1, 1])
    c = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
    np.testing.assert_allclose(linalg.hermitian_eigenvalues(c), [-0.5, 0.5])


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


@settings(max_examples=50)
@given(hnp.arrays(np.float64, (4,), elements=st.floats(-5, 5, allow_nan=False)))
def test_diagonal_eigenvalues_exact(d):
    got = linalg.hermitian_eigenvalues(np.diag(d).astype(complex))
    np.testing.assert_allclose(got, np.sort(d), atol=1e-14)


@settings(max_examples=50)
@given(_complex_matrices(4), st.floats(-2, 2, allow_nan=False))
def test_eigenvalue_sum_and_shift(m, alpha):
    h = m + m.conj().T
    eig = linalg.hermitian_eigenvalues(h)
    assert abs(eig.sum() - np.trace(h).real) <= 1e-10
    shifted = linalg.hermitian_eigenvalues(h + alpha * np.eye(4))
    np.testing.assert_allclose(shifted, eig + alpha, atol=1e-10)
