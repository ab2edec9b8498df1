import math

import numpy as np
import pytest

from bellfoundry import model1, model2
from bellfoundry.lhv import DeterministicSignModel, wigner_measures
from bellfoundry.geometry import (
    Axis,
    Hemisphere,
    PairCounts,
    counts_from_signs,
    empirical_expectation,
    hemisphere_pair_signs,
    sign_index,
    wrap_delta,
)
from bellfoundry.quantum import singlet_expectation, singlet_joint_probability
from bellfoundry.rng import substream


class TestAxis:
    def test_canonical_range(self):
        assert Axis(-math.pi / 2).theta == pytest.approx(3 * math.pi / 2)
        assert Axis(2 * math.pi).theta == pytest.approx(0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Axis(math.inf)

    def test_unit_vector_z_reference(self):
        np.testing.assert_allclose(Axis(0.0).unit_vector, [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(
            Axis(math.pi / 2).unit_vector, [1, 0, 0], atol=1e-15
        )


class TestWrapDelta:
    def test_simple(self):
        assert wrap_delta(Axis(0.0), Axis(math.pi / 3)) == pytest.approx(math.pi / 3)

    def test_identity(self):
        assert wrap_delta(Axis(math.pi / 4), Axis(math.pi / 4)) == 0.0

    def test_wraps_into_interval(self):
        assert wrap_delta(Axis(0.0), Axis(3 * math.pi / 2)) == pytest.approx(-math.pi / 2)


class TestHemisphere:
    def test_effective_angle(self):
        for theta in (0.0, 0.3, 5.0):
            assert Hemisphere(Axis(theta), 1).effective_angle == theta
            assert Hemisphere(Axis(theta), -1).effective_angle == theta + math.pi

    @pytest.mark.parametrize("sign", [0, 2, 1.5])
    def test_rejects_other_signs(self, sign):
        with pytest.raises(ValueError):
            Hemisphere(Axis(0.0), sign)

    @pytest.mark.parametrize("axis", [0.3, None, "0.3", (0.3,)])
    def test_rejects_non_axis(self, axis):
        with pytest.raises(ValueError, match="must be an Axis"):
            Hemisphere(axis, 1)

    @pytest.mark.parametrize("axis", [0.3, None, "0.3", (0.3,)])
    def test_wigner_measure_rejects_non_axis(self, axis):
        with pytest.raises(ValueError, match="must be an Axis"):
            wigner_measures(DeterministicSignModel(), [[(Axis(0.0), 1), (axis, -1)]])

    def test_wigner_measure_rejects_fractional_sign(self):
        with pytest.raises(ValueError):
            wigner_measures(DeterministicSignModel(), [[(Axis(0.0), 1.5)]])

    def test_poles_and_boundary(self):
        plus, minus = Hemisphere(Axis(0.0), 1), Hemisphere(Axis(0.0), -1)
        rows = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        # the boundary r.a = 0 (last two rows) belongs to + only
        assert plus.contains(rows).tolist() == [True, False, True, True]
        assert minus.contains(rows).tolist() == [False, True, False, False]
        for row, in_plus in zip(rows, [True, False, True, True]):
            assert plus.contains(row) == in_plus
            assert minus.contains(row) == (not in_plus)

    def test_negative_zero_and_nan_projections(self):
        plus, minus = Hemisphere(Axis(0.0), 1), Hemisphere(Axis(0.0), -1)
        # object rows keep the -0.0 that a float dot product would round to +0.0
        neg_zero = np.array([-0.0, -0.0, -0.0], dtype=object)
        assert math.copysign(1.0, neg_zero @ Axis(0.0).unit_vector) == -1.0
        assert plus.contains(neg_zero) and not minus.contains(neg_zero)
        assert plus.contains(np.array([neg_zero, neg_zero])).tolist() == [True, True]
        assert minus.contains(np.array([neg_zero, neg_zero])).tolist() == [False, False]
        nan_row = np.array([0.0, 0.0, math.nan])
        assert not plus.contains(nan_row) and not minus.contains(nan_row)
        nan_rows = np.array([nan_row, [0.0, 0.0, 1.0]])
        assert plus.contains(nan_rows).tolist() == [False, True]
        assert minus.contains(nan_rows).tolist() == [False, False]


class TestSignIndex:
    def test_plus_is_row_0_and_minus_row_1(self):
        assert sign_index(1) == 0
        assert sign_index(-1) == 1

    @pytest.mark.parametrize("sign", [0, 2, 0.5])
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: sign_index(s),
            lambda s: singlet_joint_probability(s, Axis(0.0), 1, Axis(1.0)),
            lambda s: singlet_joint_probability(1, Axis(0.0), s, Axis(1.0)),
            lambda s: model2.two_party_prob(Axis(0.3), Axis(0.0), Axis(1.0), s, 1),
            lambda s: model2.two_party_prob(Axis(0.3), Axis(0.0), Axis(1.0), 1, s),
        ],
        ids=["sign_index", "singlet_a1", "singlet_b2", "two_party_c1", "two_party_b2"],
    )
    def test_only_unit_signs(self, call, sign):
        with pytest.raises(ValueError, match="sign must be"):
            call(sign)


class TestEmpiricalExpectation:
    def test_all_anticorrelated(self):
        est = empirical_expectation(PairCounts(0, 500, 500, 0))
        assert est.value == -0.25
        assert est.std_error == 0.0

    def test_symmetric_cells_cancel(self):
        assert empirical_expectation(PairCounts(250, 250, 250, 250)).value == 0.0

    def test_singlet_generated_counts(self):
        # counts drawn from the singlet law at d = pi/4; oracle is the
        # closed-form expectation -cos(pi/4)/4
        est = empirical_expectation(PairCounts(146, 854, 853, 147))
        assert est.value == pytest.approx(-0.17675)
        target = singlet_expectation(Axis(0.0), Axis(math.pi / 4))
        assert abs(est.value - target) < 3 * est.std_error

    def test_empty_counts_error(self):
        with pytest.raises(ValueError, match="empty counts"):
            empirical_expectation(PairCounts(0, 0, 0, 0))

    def test_label_swap_invariance(self):
        counts = PairCounts(10, 20, 30, 40)
        swapped = PairCounts(40, 30, 20, 10)
        assert empirical_expectation(counts).value == empirical_expectation(swapped).value

    def test_single_trial_has_no_std_error(self):
        est = empirical_expectation(PairCounts(1, 0, 0, 0))
        assert math.isnan(est.std_error)


class TestPairCounts:
    def test_merge_associative_commutative(self):
        a = PairCounts(1, 2, 3, 4)
        b = PairCounts(5, 6, 7, 8)
        c = PairCounts(9, 10, 11, 12)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    def test_counts_from_signs(self):
        s1 = np.array([1, 1, -1, -1, 1])
        s2 = np.array([1, -1, 1, -1, 1])
        counts = counts_from_signs(s1, s2)
        assert (counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm) == (2, 1, 1, 1)

    def test_counts_from_masks_equal_counts_from_signs(self):
        signs = np.where(substream(12).random((2, 999)) < 0.4, 1, -1)
        from_signs = counts_from_signs(signs[0], signs[1])
        assert counts_from_signs(signs[0] > 0, signs[1] > 0) == from_signs
        assert from_signs.total == 999


class RowDraws:
    """A generator stub: the given Gaussian rows, then evenly spread uniforms."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float).reshape(-1, 3)

    def standard_normal(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()

    def random(self, n):
        return (np.arange(n) + 0.5) / n


def normalized_route(rng, a_unit, p_plus_if_plus, p_plus_if_minus, n):
    """The kernel's law with the hemisphere read from the normalized draws."""
    v = rng.standard_normal((n, 3))
    plus1 = v / np.linalg.norm(v, axis=1, keepdims=True) @ a_unit >= 0.0
    u = rng.random(n)
    return plus1, np.where(plus1, u < p_plus_if_plus, u < p_plus_if_minus)


def stub_law(label, b):
    """A constant single-particle law: 0.3 under Hemisphere(a, -1), 0.8 under Hemisphere(a, +1)."""
    return 0.3 if label.sign < 0 else 0.8


def assert_kernel_plus1(rows, a, expected):
    """The kernel on the given Gaussian rows answers ``expected`` for particle 1,
    and particle 2 follows ``stub_law`` on the stub's uniforms."""
    with np.errstate(all="ignore"):  # an inf row makes inf * 0 in the dot and warns
        plus1, plus2 = hemisphere_pair_signs(RowDraws(rows), a, Axis(1.1), len(expected), stub_law)
    u = RowDraws(rows).random(len(expected))
    assert plus1.tolist() == list(expected)
    assert np.array_equal(plus2, np.where(expected, u < 0.3, u < 0.8))


def rows_where_raw_sign_differs(theta):
    """Rows in the plane normal to a, nudged by a few 1e-17 along a, whose
    raw sign (v @ a >= 0) differs from the normalized route's sign."""
    a = Axis(theta).unit_vector
    rng = substream(8, 5)
    p = rng.standard_normal((20_000, 3))
    p -= (p @ a)[:, None] * a
    v = p + (rng.integers(-4, 5, 20_000) * 1e-17)[:, None] * a
    differs = (v @ a >= 0.0) != (v / np.linalg.norm(v, axis=1, keepdims=True) @ a >= 0.0)
    assert np.count_nonzero(differs) >= 64
    return v[differs][:64]


# rows on the plane normal to z (dot exactly +-0) and the all-zero row: +
PLANE_ROWS = [[0.3, -1.2, 0.0], [1.0, 0.5, -0.0], [0.0, 0.0, 0.0]]

# (row, its side of the plane normal to z) for rows whose norm is not finite and positive
EXTREME_ROWS = [
    # squares underflow: the row still lies on the + side
    ([0.0, 0.0, 2.0**-600], True),
    ([0.0, 0.0, 2.0**-1000], True),
    # squares overflow: the row still lies on the - side
    ([0.0, 0.0, -(2.0**600)], False),
    # a NaN dot is in neither hemisphere: -
    ([math.nan, 0.0, 1.0], False),
    ([math.inf, 0.0, 1.0], False),
]


class TestHemispherePairSigns:
    @pytest.mark.parametrize("theta", [0.7, 2.1, 4.0])
    def test_rows_near_the_plane_take_their_raw_sign(self, theta):
        a = Axis(theta)
        rows = rows_where_raw_sign_differs(theta)
        assert_kernel_plus1(rows, a, rows @ a.unit_vector >= 0.0)

    def test_exact_zero_dot_and_zero_rows(self):
        assert_kernel_plus1(PLANE_ROWS + [[0.2, 0.1, -0.9]], Axis(0.0), [True, True, True, False])

    @pytest.mark.parametrize("row, plus", EXTREME_ROWS)
    def test_each_row_is_decided_by_its_side_of_the_plane(self, row, plus):
        assert_kernel_plus1(row, Axis(0.0), [plus])

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 5e-324, 0.7])
    @pytest.mark.parametrize("seed", [1, 90210])
    def test_random_batches_equal_the_normalized_route(self, theta, seed):
        got = hemisphere_pair_signs(substream(seed, 4), Axis(theta), Axis(1.1), 65_536, stub_law)
        expected = normalized_route(substream(seed, 4), Axis(theta).unit_vector, 0.3, 0.8, 65_536)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_random_batches_skip_the_normalization(self, monkeypatch):
        near_plane = rows_where_raw_sign_differs(0.7)
        stub_rows = PLANE_ROWS + [row for row, _ in EXTREME_ROWS]
        stub_plus = [True] * len(PLANE_ROWS) + [plus for _, plus in EXTREME_ROWS]

        def normalization_called(*args, **kwargs):
            raise AssertionError("normalized route taken")

        monkeypatch.setattr(np.linalg, "norm", normalization_called)
        for theta in (0.0, math.pi / 2, 5e-324, 2.1):
            hemisphere_pair_signs(substream(3, 4), Axis(theta), Axis(1.1), 65_536, stub_law)
        assert_kernel_plus1(near_plane, Axis(0.7), near_plane @ Axis(0.7).unit_vector >= 0.0)
        assert_kernel_plus1(stub_rows, Axis(0.0), stub_plus)

    @pytest.mark.parametrize("sampler", [model1.sample_trial_counts, model2.sample_trial_counts])
    def test_empty_batch(self, sampler):
        assert sampler(substream(1), Axis(0.3), Axis(1.1), 0) == PairCounts(0, 0, 0, 0)
