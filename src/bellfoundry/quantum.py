"""Closed-form singlet predictions and operator-algebra CHSH bounds.

This module is the ground-truth oracle the hidden-variable models are
checked against.  Spin operators are realized in the x-z plane (matching
the coplanar axis convention): S(theta) = (cos(theta) sz + sin(theta) sx)/2.
The representation choice is arbitrary but fixed; every exported quantity
depends only on angle differences.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Axis, PairCounts, V_MAX, sign_index, wrap_delta
from .linalg import spectral_norm
from .rng import substream

#: Grid points cross-checked by ``eigvalsh`` in chsh_norm_grid, drawn from
#: the fixed key (0, NORM_CHECK_STREAM), and the agreement they must reach.
NORM_CHECK_POINTS = 4096
NORM_CHECK_STREAM = 10
NORM_CHECK_TOL = 1e-12


def singlet_joint_probability(a1: int, a: Axis, b2: int, b: Axis) -> float:
    """One cell of singlet_joint_table: the probability of outcomes (a1, b2) along (a, b)."""
    return float(singlet_joint_table(a, b)[sign_index(a1), sign_index(b2)])


def singlet_expectation(a: Axis, b: Axis) -> float:
    """E(a, b) = -cos(theta_b - theta_a) / 4 for the singlet state."""
    return -V_MAX**2 * math.cos(wrap_delta(a, b))


def _singlet_cells(a: Axis, b: Axis) -> tuple[float, float]:
    """The singlet's same-sign cell, sin(d/2)**2 / 2, and opposite-sign cell,
    cos(d/2)**2 / 2, at d = theta_b - theta_a."""
    half = wrap_delta(a, b) / 2.0
    return 0.5 * math.sin(half) ** 2, 0.5 * math.cos(half) ** 2


def singlet_joint_table(a: Axis, b: Axis) -> np.ndarray:
    """2x2 table of singlet joint probabilities; index 0 = +1/2, 1 = -1/2."""
    same, opposite = _singlet_cells(a, b)
    return np.array([[same, opposite], [opposite, same]])


def sample_singlet_counts(rng: np.random.Generator, a: Axis, b: Axis, n: int) -> PairCounts:
    """Draw n outcome pairs directly from the singlet joint law."""
    same, opposite = _singlet_cells(a, b)
    return PairCounts(*rng.multinomial(n, [same, opposite, opposite, same]).tolist())


def spin_operator(a: Axis) -> np.ndarray:
    """Real symmetric 2x2 spin projection operator along a coplanar axis; eigenvalues +-1/2."""
    return _spin_batch(np.float64(a.theta))


def chsh_operator(a: Axis, ap: Axis, b: Axis, bp: Axis, sign_choice: int = 1) -> np.ndarray:
    """The real symmetric 4x4 CHSH combination of tensor-product spin operators.

    ``sign_choice`` selects which of the two sign patterns is built:
    S1a S2b -+ S1a S2b' + S1a' S2b +- S1a' S2b' with the upper pattern
    for +1.
    """
    if sign_choice not in (1, -1):
        raise ValueError("sign_choice must be +1 or -1")
    quad = np.array([[a.theta, ap.theta, b.theta, bp.theta]])
    return _chsh_batch(quad, sign_choice)[0]


def _spin_batch(theta: np.ndarray) -> np.ndarray:
    """Real x-z spin operators S(theta) = (cos(theta) sz + sin(theta) sx)/2, shape (..., 2, 2)."""
    c = 0.5 * np.cos(theta)
    s = 0.5 * np.sin(theta)
    return np.stack([np.stack([c, s], axis=-1), np.stack([s, -c], axis=-1)], axis=-2)


def _kron_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...kl->...ikjl", x, y).reshape(*x.shape[:-2], 4, 4)


def _chsh_batch(quads: np.ndarray, sign: int) -> np.ndarray:
    """Real CHSH operators (n, 4, 4) for angle rows (theta_a, theta_a', theta_b, theta_b')."""
    s1a, s1ap, s2b, s2bp = (_spin_batch(quads[:, k]) for k in range(4))
    return (
        _kron_batch(s1a, s2b)
        - sign * _kron_batch(s1a, s2bp)
        + _kron_batch(s1ap, s2b)
        + sign * _kron_batch(s1ap, s2bp)
    )


def identity_residual(quads: np.ndarray) -> float:
    """Entrywise-max residual of the squared-CHSH identity over angle rows, both signs.

    (CHSH)^2 = 4 V_MAX^4 I +- [S1a, S1a'] x [S2b, S2b'] is exact, so it sits at rounding level.
    """
    s1a, s1ap, s2b, s2bp = (_spin_batch(quads[:, k]) for k in range(4))
    comm = _kron_batch(s1a @ s1ap - s1ap @ s1a, s2b @ s2bp - s2bp @ s2b)
    identity = np.eye(4)
    worst = 0.0
    for sign in (1, -1):
        chsh = _chsh_batch(quads, sign)
        expected = 4.0 * V_MAX**4 * identity + sign * comm
        worst = max(worst, float(np.abs(chsh @ chsh - expected).max()))
    return worst


def chsh_norm_grid(resolution: int) -> float:
    """Max CHSH operator norm over a coplanar (a', b, b') grid with a = 0.

    The grid steps are 2*pi/resolution, so the exact optimum lies on the
    grid whenever resolution is a multiple of 8.  The squared-CHSH
    identity fixes the spectrum, so every grid point is scored in closed
    form, ||CHSH|| = 2 V_MAX^2 sqrt(1 + |sin(a' - a) sin(b' - b)|),
    which is the same for both sign choices.
    As an independent route, ``eigvalsh`` of the explicitly built
    operators, both signs, at NORM_CHECK_POINTS seeded grid points and at
    the optimum must agree with the closed form to NORM_CHECK_TOL.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    thetas = np.arange(resolution) * (2.0 * math.pi / resolution)
    sin_ap = np.abs(np.sin(thetas))  # (a',)
    sin_bbp = np.abs(np.sin(thetas[None, :] - thetas[:, None]))  # (b, b')
    # 2 V_MAX^2 sqrt(1 + sin_ap sin_bbp), built in one buffer
    norms = sin_ap[:, None, None] * sin_bbp[None]
    norms += 1.0
    np.sqrt(norms, out=norms)
    norms *= 2.0 * V_MAX**2
    best_flat = int(np.argmax(norms))

    n_check = min(norms.size, NORM_CHECK_POINTS)
    picks = substream(0, stream=NORM_CHECK_STREAM).choice(norms.size, n_check, replace=False)
    picks = np.append(picks, best_flat)
    # keep only the checked points (the best last), so the grid is freed before the eigen-solves
    picked = norms.flat[picks]
    del norms
    i_ap, i_b, i_bp = np.unravel_index(picks, (resolution,) * 3)
    quads = np.stack([np.zeros(picks.size), thetas[i_ap], thetas[i_b], thetas[i_bp]], axis=-1)
    for sign in (1, -1):
        gap = np.abs(spectral_norm(_chsh_batch(quads, sign)) - picked).max()
        if gap > NORM_CHECK_TOL:
            raise ArithmeticError(f"closed-form CHSH norm disagrees with eigvalsh by {gap:.3e}")
    return float(picked[-1])


def identity_residual_scan(n_quadruples: int, seed: int) -> float:
    """Worst commutator-identity residual over random axis quadruples."""
    if n_quadruples < 1:
        raise ValueError("n_quadruples must be >= 1")
    thetas = substream(seed, stream=9).uniform(0.0, 2.0 * math.pi, size=(n_quadruples, 4))
    return identity_residual(thetas)
