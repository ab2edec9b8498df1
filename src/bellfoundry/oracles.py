"""Brute-force oracles: quadrature and enumeration double-checks.

Everything here is deliberately independent of the closed forms it validates:
plain grids, Gauss-Legendre quadrature and sampling, sharing no helper math with
them, so tests can compare the two routes.  Their sign decisions are float64
``np.cos``'s on purpose, even where a float32 cosine screens them first: they are
the independent route for ``lhv``'s threshold rule.
"""

from __future__ import annotations

import math

import numpy as np


def hemi_average_quadrature(offset: float) -> float:
    """Mean of the projection field (r.b)/pi over the +a hemisphere.

    a sits on the z axis, b at `offset` from it in the x-z plane; the
    integral runs over polar angle [0, pi/2] with Gauss-Legendre nodes and
    a trapezoid azimuth grid.
    """
    if not math.isfinite(offset):
        raise ValueError("quadrature offset must be finite")
    order = 120  # Gauss-Legendre nodes; the azimuth grid has 2 * order points
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
        # in place: one block-sized array, not three
        lam = np.arange(start, min(start + QUADRATURE_BLOCK, n), dtype=float)
        lam += 0.5
        lam *= step
        yield lam


def _screened_cos_nonneg(lam: np.ndarray, theta: float) -> np.ndarray:
    """``np.cos(lam - theta) >= 0.0`` for an ascending ``lam``, bit for bit.

    A float32 cosine decides a point where |cos| > 2**-16 + 2**-23 * max|c|, which bounds
    the float32 rounding of c (2**-24 * |c|) plus float32 ``np.cos``'s few-ulp error.  The
    other points take the float64 cosine: about 1e-5 of a grid, and all of it once max|c|
    passes about 2**23 or the screen is NaN beyond float32's range.
    """
    c = lam - theta
    bound = 2.0**-16 + 2.0**-23 * max(abs(c[0]), abs(c[-1]))  # c is monotone in lam
    with np.errstate(over="ignore", invalid="ignore"):
        screen = np.cos(c.astype(np.float32))
    nonneg = screen >= 0.0
    undecided = np.flatnonzero(~(np.abs(screen) > bound))
    nonneg[undecided] = np.cos(c[undecided]) >= 0.0
    return nonneg


def circle_quadratures(overlaps, deltas, n: int = 2_000_000) -> tuple[list[float], list[float]]:
    """Half-circle overlaps and sign-rule expectations from one walk of the n-point grid.

    Returns (overlap per (theta_a, theta_b) in `overlaps`, expectation per
    delta in `deltas`); ``half_circle_overlap_quadrature`` is the
    one-overlap form.  Each block decides ``np.cos(lam - theta) >= 0.0`` once per
    distinct angle, through ``_screened_cos_nonneg``'s float32 screen; the sign rule's
    particle 1 reads theta = 0.0, and lam - 0.0 is lam.
    """
    if type(n) is not int or n < 1:  # type(), not isinstance: a bool is an int
        raise ValueError(f"quadrature needs n >= 1 grid points and an int, got n={n!r}")
    angles = [t for pair in overlaps for t in pair] + ([0.0, *deltas] if deltas else [])
    if not all(math.isfinite(t) for t in angles):
        raise ValueError("quadrature angles must be finite")
    # -0.0 keys as 0.0, which is harmless: lam > 0, so lam + 0.0 is lam
    distinct = list(dict.fromkeys(angles))
    inside = [0] * len(overlaps)
    agree = [0] * len(deltas)
    for lam in _lambda_blocks(n):
        nonneg = {theta: _screened_cos_nonneg(lam, theta) for theta in distinct}
        for i, (theta_a, theta_b) in enumerate(overlaps):
            inside[i] += int(np.count_nonzero(nonneg[theta_a] & nonneg[theta_b]))
        # particle 1 answers +1/2 where cos(lam) >= 0, particle 2 -1/2 where
        # cos(lam - delta) >= 0: the product is -1/4 where they agree, else +1/4
        for i, delta in enumerate(deltas):
            agree[i] += int(np.count_nonzero(nonneg[0.0] == nonneg[delta]))
    # the quarters sum exactly, so each mean is 0.25 * (n - 2 * agree) / n
    return [count / n for count in inside], [0.25 * (n - 2 * count) / n for count in agree]


def half_circle_overlap_quadrature(theta_a: float, theta_b: float, n: int = 2_000_000) -> float:
    """Share of the circle where cos(lam - theta_a) and cos(lam - theta_b) are both >= 0."""
    return circle_quadratures([(theta_a, theta_b)], (), n)[0][0]


def hemisphere_conditional_fraction(n: int, rng) -> float:
    """P(J.b >= 0 | J.a >= 0) for uniform sphere points; brute-force sampler.

    The geometry is fixed: a = z and b at pi/4 in the x-z plane.  As the
    independent route to Model 1's pointwise rule, it normalizes on purpose.
    """
    if n < 1:
        raise ValueError("the conditional fraction needs n >= 1 samples")
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    in_a = v[:, 2] >= 0.0
    b = np.array([math.sin(math.pi / 4.0), 0.0, math.cos(math.pi / 4.0)])
    in_b = v @ b >= 0.0
    n_a = in_a.sum()
    if n_a == 0:
        raise ValueError("no sample in the +a hemisphere: the conditional fraction is undefined")
    return float((in_a & in_b).sum() / n_a)
