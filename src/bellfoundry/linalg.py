"""Spectral norm of small dense Hermitian matrices, batched over leading axes."""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12


def spectral_norm(h: np.ndarray) -> np.ndarray:
    """Largest absolute eigenvalue via ``np.linalg.eigvalsh``, batched over leading axes.

    Raises ValueError if the input is not square or not Hermitian to
    within HERMITICITY_TOL.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("matrix must be square")
    residual = np.abs(h - np.conj(np.swapaxes(h, -2, -1))).max()
    if residual > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e})")
    return np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
