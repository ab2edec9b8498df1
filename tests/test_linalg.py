import numpy as np
import pytest

from bellfoundry.linalg import spectral_norm


def test_diagonal_matrix():
    assert spectral_norm(np.diag([3.0, -1.0, 2.0, 0.5])) == pytest.approx(3.0, abs=1e-13)
    assert spectral_norm(np.diag([0.5, -4.0, 2.0, 0.5])) == pytest.approx(4.0, abs=1e-13)


def test_matches_numpy_real_symmetric():
    # oracle: the 2-norm from numpy's SVD, a route that never calls eigvalsh
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.standard_normal((4, 4))
        m = m + m.T
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-11)


def test_matches_numpy_complex_hermitian():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m + m.conj().T
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-10)


def test_batched_matches_loop():
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((32, 4, 4))
    batch = batch + np.swapaxes(batch, -2, -1)
    batched = spectral_norm(batch)
    assert batched.shape == (32,)
    for i in range(32):
        assert batched[i] == pytest.approx(np.abs(np.linalg.eigvalsh(batch[i])).max(), abs=1e-12)


def test_spectral_norm():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0)
    m = np.diag([0.25, -0.25, 0.25, -0.25]) * 2
    assert spectral_norm(m) == pytest.approx(0.5)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    batch = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.5, 0.0]])])
    with pytest.raises(ValueError, match="Hermitian"):
        spectral_norm(batch)


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        spectral_norm(np.zeros((2, 3)))
