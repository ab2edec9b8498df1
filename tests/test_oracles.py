import math

import numpy as np
import pytest

from bellfoundry.oracles import (
    QUADRATURE_BLOCK,
    _lambda_blocks,
    circle_quadratures,
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


# the oracle's own angles, repeats, and -0.0, which must read as 0.0
FUSED_OVERLAPS = [
    (0.0, math.pi / 2.0), (-0.0, math.pi / 2.0), (math.pi / 4.0, math.pi / 4.0), (2.5, -1.0)
]
FUSED_DELTAS = [math.pi / 2.0, math.pi / 4.0, math.pi / 2.0, -0.0, 2.5]


class TestFusedWalk:
    """One walk for every overlap and expectation changes no bit of any of them."""

    @pytest.mark.parametrize("n", [1, QUADRATURE_BLOCK - 1, QUADRATURE_BLOCK + 1, 2_000_000])
    def test_equals_single_and_whole_grid(self, n):
        overlaps, expectations = circle_quadratures(FUSED_OVERLAPS, FUSED_DELTAS, n)
        for (theta_a, theta_b), overlap in zip(FUSED_OVERLAPS, overlaps, strict=True):
            assert overlap == half_circle_overlap_quadrature(theta_a, theta_b, n)
            assert overlap == whole_grid_overlap(theta_a, theta_b, n)
        for delta, expectation in zip(FUSED_DELTAS, expectations, strict=True):
            assert expectation == sign_model_expectation_quadrature(delta, n)
            assert expectation == whole_grid_sign_expectation(delta, n)

    def test_each_distinct_cosine_once_per_block(self, monkeypatch):
        calls = []
        cos = np.cos
        monkeypatch.setattr(np, "cos", lambda *args, **kw: calls.append(1) or cos(*args, **kw))
        # the oracle's three quadratures read three distinct angles (0, pi/2, pi/4) in 3 blocks
        n = 2 * QUADRATURE_BLOCK + 1
        circle_quadratures([(0.0, math.pi / 2.0)], [math.pi / 2.0, math.pi / 4.0], n)
        assert len(calls) == 3 * 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises(self, bad):
        # filterwarnings = error: a RuntimeWarning from np.cos would fail this too
        for call in (
            lambda: half_circle_overlap_quadrature(0.0, bad, 10),
            lambda: sign_model_expectation_quadrature(bad, 10),
        ):
            with pytest.raises(ValueError, match="quadrature angles must be finite"):
                call()
