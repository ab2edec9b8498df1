import math

import numpy as np
import pytest

from bellfoundry.oracles import (
    QUADRATURE_BLOCK,
    _lambda_blocks,
    half_circle_overlap_quadrature,
    sign_model_expectation_quadrature,
)
from bellfoundry.rng import substream


def whole_grid_overlap(theta_a, theta_b, n):
    """Reference: the overlap quadrature over one whole n-point grid."""
    lam = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    inside = (np.cos(lam - theta_a) >= 0.0) & (np.cos(lam - theta_b) >= 0.0)
    return float(inside.mean())


def whole_grid_sign_expectation(delta, n):
    """Reference: the sign-rule quadrature over one whole n-point grid."""
    lam = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    s1 = np.where(np.cos(lam) >= 0.0, 0.5, -0.5)
    s2 = np.where(np.cos(lam - delta) >= 0.0, -0.5, 0.5)
    return float((s1 * s2).mean())


class TestBlockedQuadrature:
    """Walking lambda in blocks changes no bit of either quadrature."""

    @pytest.mark.parametrize(
        "n", [1, 2, QUADRATURE_BLOCK - 1, QUADRATURE_BLOCK, QUADRATURE_BLOCK + 1, 2_000_000]
    )
    def test_blocks_hold_the_whole_grid(self, n):
        blocks = list(_lambda_blocks(n))
        assert all(len(block) <= QUADRATURE_BLOCK for block in blocks)
        whole = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        np.testing.assert_array_equal(np.concatenate(blocks), whole, strict=True)

    def test_small_grids(self):
        # at small n, count / n and count * (1 / n) round apart for some counts
        rng = substream(11, 1)
        for n in range(1, 300):
            theta_a, theta_b, delta = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=3)
            assert half_circle_overlap_quadrature(theta_a, theta_b, n) == whole_grid_overlap(
                theta_a, theta_b, n
            )
            assert sign_model_expectation_quadrature(delta, n) == whole_grid_sign_expectation(
                delta, n
            )

    @pytest.mark.parametrize(
        "n, cases",
        [
            (1, 20),
            (QUADRATURE_BLOCK - 1, 6),
            (QUADRATURE_BLOCK, 6),
            (QUADRATURE_BLOCK + 1, 6),
            (2_000_000, 1),
        ],
    )
    def test_equals_whole_grid(self, n, cases):
        angles = substream(11, 0, n).uniform(-3.0 * math.pi, 3.0 * math.pi, size=(cases, 3))
        for theta_a, theta_b, delta in angles:
            assert half_circle_overlap_quadrature(theta_a, theta_b, n) == whole_grid_overlap(
                theta_a, theta_b, n
            )
            assert sign_model_expectation_quadrature(delta, n) == whole_grid_sign_expectation(
                delta, n
            )

    def test_closed_form_angles(self):
        n = 3 * QUADRATURE_BLOCK + 7
        for delta in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi, -math.pi):
            assert sign_model_expectation_quadrature(delta, n) == whole_grid_sign_expectation(
                delta, n
            )
            assert half_circle_overlap_quadrature(0.0, delta, n) == whole_grid_overlap(0.0, delta, n)
