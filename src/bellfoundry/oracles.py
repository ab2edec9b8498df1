"""Brute-force oracles: quadrature and enumeration double-checks.

Everything here is deliberately independent of the closed forms it
validates -- plain grids and Gauss-Legendre quadrature, no shared helper
math -- so tests can compare the two routes.  Their sign decisions use ``np.cos``
on purpose: they are the independent route for ``lhv``'s threshold rule.
"""

from __future__ import annotations

import math

import numpy as np


def hemi_average_quadrature(offset: float, order: int = 120) -> float:
    """Mean of the projection field (r.b)/pi over the +a hemisphere.

    a sits on the z axis, b at `offset` from it in the x-z plane; the
    integral runs over polar angle [0, pi/2] with Gauss-Legendre nodes and
    a trapezoid azimuth grid.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    gamma = (nodes + 1.0) * (math.pi / 4.0)  # [0, pi/2]
    w_gamma = weights * (math.pi / 4.0)
    phi = (np.arange(2 * order) + 0.5) * (2.0 * math.pi / (2 * order))
    w_phi = 2.0 * math.pi / (2 * order)
    sin_g = np.sin(gamma)[:, None]
    cos_g = np.cos(gamma)[:, None]
    r_dot_b = sin_g * np.cos(phi)[None, :] * math.sin(offset) + cos_g * math.cos(offset)
    integrand = r_dot_b / math.pi * sin_g
    return float((integrand * w_gamma[:, None]).sum() * w_phi)


#: Points per block of the lambda grid that the circle quadratures walk.
QUADRATURE_BLOCK = 65_536


def _lambda_blocks(n: int):
    """The midpoint grid (k + 1/2) * 2pi/n, k = 0..n-1, in blocks of QUADRATURE_BLOCK points.

    Each block holds the same doubles as the whole grid would, so counts
    over the blocks equal counts over the whole grid.
    """
    step = 2.0 * math.pi / n
    for start in range(0, n, QUADRATURE_BLOCK):
        yield (np.arange(start, min(start + QUADRATURE_BLOCK, n)) + 0.5) * step


def half_circle_overlap_quadrature(theta_a: float, theta_b: float, n: int = 2_000_000) -> float:
    """Share of the circle where cos(lam - theta_a) and cos(lam - theta_b) are both >= 0."""
    inside = 0
    for lam in _lambda_blocks(n):
        both = (np.cos(lam - theta_a) >= 0.0) & (np.cos(lam - theta_b) >= 0.0)
        inside += int(np.count_nonzero(both))
    return inside / n


def sign_model_expectation_quadrature(delta: float, n: int = 2_000_000) -> float:
    """Deterministic sign-rule expectation by direct angular quadrature.

    Particle 1 answers +1/2 where cos(lam) >= 0 and particle 2 answers
    -1/2 where cos(lam - delta) >= 0, so each point scores -1/4 where the
    two conditions agree and +1/4 where they differ.  The sum of those
    quarters is exact, so the mean is 0.25 * (n - 2 * agree) / n.
    """
    agree = 0
    for lam in _lambda_blocks(n):
        same = (np.cos(lam) >= 0.0) == (np.cos(lam - delta) >= 0.0)
        agree += int(np.count_nonzero(same))
    return 0.25 * (n - 2 * agree) / n


def singlet_expectation_from_cells(delta: float) -> float:
    """The four singlet joint-probability cells weighted by their outcome products, summed."""
    same = 0.5 * math.sin(delta / 2.0) ** 2
    opposite = 0.5 * math.cos(delta / 2.0) ** 2
    total = 0.0
    for a1 in (0.5, -0.5):
        for b2 in (0.5, -0.5):
            p = opposite if a1 * b2 < 0 else same
            total += a1 * b2 * p
    return total


def hemisphere_conditional_fraction(n: int, rng) -> float:
    """P(J.b > 0 | J.a > 0) for uniform sphere points; brute-force sampler.

    Caller supplies the axis geometry by rotating afterwards; this uses
    a = z and b at pi/4 in the x-z plane as the canonical probe.
    """
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    in_a = v[:, 2] >= 0.0
    b = np.array([math.sin(math.pi / 4.0), 0.0, math.cos(math.pi / 4.0)])
    in_b = v @ b >= 0.0
    return float((in_a & in_b).sum() / in_a.sum())
