import math

import numpy as np
import pytest

from bellfoundry.oracles import (
    QUADRATURE_BLOCK,
    _lambda_blocks,
    _screened_cos_nonneg,
    circle_quadratures,
    half_circle_overlap_quadrature,
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
            assert circle_quadratures((), [delta], n)[1][0] == whole_grid_sign_expectation(
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
            assert circle_quadratures((), [delta], n)[1][0] == whole_grid_sign_expectation(
                delta, n
            )

    def test_closed_form_angles(self):
        n = 3 * QUADRATURE_BLOCK + 7
        for delta in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi, -math.pi):
            assert circle_quadratures((), [delta], n)[1][0] == whole_grid_sign_expectation(
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
            assert expectation == circle_quadratures((), [delta], n)[1][0]
            assert expectation == whole_grid_sign_expectation(delta, n)

    def test_each_distinct_cosine_once_per_block(self, monkeypatch):
        calls = []
        cos = np.cos
        monkeypatch.setattr(np, "cos", lambda x, *args, **kw: calls.append(x) or cos(x, *args, **kw))
        # the oracle's three quadratures read three distinct angles (0, pi/2, pi/4) in 3 blocks
        n = 2 * QUADRATURE_BLOCK + 1
        circle_quadratures([(0.0, math.pi / 2.0)], [math.pi / 2.0, math.pi / 4.0], n)
        whole_block = [len(x) for x in calls if x.dtype == np.float32]
        assert whole_block == 6 * [QUADRATURE_BLOCK] + 3 * [1]
        # the float64 re-check sees only the points the float32 screen cannot decide
        rechecked = sum(len(x) for x in calls if x.dtype == np.float64)
        assert rechecked < 100  # of 3 * n = 393,219

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises(self, bad):
        # filterwarnings = error: a RuntimeWarning from np.cos would fail this too
        for call in (
            lambda: half_circle_overlap_quadrature(0.0, bad, 10),
            lambda: circle_quadratures((), [bad], 10)[1][0],
        ):
            with pytest.raises(ValueError, match="quadrature angles must be finite"):
                call()


def cos_zero_angles(n):
    """Angles that put a grid point on a float zero of cos: c = lam_k -+ fl(pi/2), fl(3pi/2)."""
    lam = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return [
        float(lam[k] + sign * zero)
        for k in sorted({0, n // 3, n - 1})
        for zero in (math.pi / 2.0, 3.0 * math.pi / 2.0)
        for sign in (1.0, -1.0)
    ]


# beyond 2**23 every point is undecided; beyond float32's range the screen is NaN
HUGE_ANGLES = [1e8, -1e8, 1e15, -1e15, 1e300, -1e300]


@pytest.mark.filterwarnings("error")
class TestFloat32Screen:
    """The float32 screen decides every point as float64 np.cos(lam - theta) >= 0.0 does."""

    @pytest.mark.parametrize("n", [1, QUADRATURE_BLOCK - 1, QUADRATURE_BLOCK + 1, 2_000_000])
    def test_equals_float64_route(self, n):
        lam = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        for theta in cos_zero_angles(n) + HUGE_ANGLES:
            plain = np.cos(lam - theta) >= 0.0
            screened = [_screened_cos_nonneg(block, theta) for block in _lambda_blocks(n)]
            np.testing.assert_array_equal(np.concatenate(screened), plain, strict=True)
            assert half_circle_overlap_quadrature(theta, theta, n) == np.count_nonzero(plain) / n

    def test_zero_angles_hit_float_zeros(self):
        # the cases above are worth their name: grid points sit on fl(pi/2) and fl(3pi/2)
        n = 2_000_000
        lam = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        for zero in (math.pi / 2.0, 3.0 * math.pi / 2.0):
            hits = sum(np.count_nonzero(np.abs(lam - t) == zero) for t in cos_zero_angles(n))
            assert hits >= 4

    def test_any_ascending_array(self):
        # points near zeros of cos at |c| ~ 1e3..1e5, where rounding c to float32 moves it
        # by up to 2**-24 * |c| > 2**-16; the end c[-1], not c[0], holds the largest |c|
        k = np.arange(1_000, 30_000, 7)
        zeros = np.concatenate([[0.0], math.pi / 2.0 + k * math.pi])
        for lam in (zeros, np.nextafter(zeros, np.inf), np.nextafter(zeros, -np.inf)):
            np.testing.assert_array_equal(
                _screened_cos_nonneg(lam, 0.0), np.cos(lam) >= 0.0, strict=True
            )
