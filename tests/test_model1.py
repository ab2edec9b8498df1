import math

import pytest

from bellfoundry.geometry import Axis, Hemisphere
from bellfoundry.model1 import (
    measure_single,
    pointwise_rule_expectation,
    sample_pointwise_rule_counts,
    single_measure_prob,
)
from bellfoundry.oracles import hemi_average_quadrature, hemisphere_conditional_fraction
from bellfoundry.rng import substream


class TestEnsembleLaw:
    def test_prob_normalized_and_bounded(self):
        rng = substream(52)
        for _ in range(100):
            t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
            assert 0.0 <= single_measure_prob(Hemisphere(Axis(t1), 1), Axis(t2)) <= 1.0

    def test_same_axis_certain(self):
        a = Axis(1.2)
        assert single_measure_prob(Hemisphere(a, 1), a) == 1.0
        assert single_measure_prob(Hemisphere(a, -1), a) == pytest.approx(0.0)

    def test_outcome_average_matches_field_average(self):
        # oracle: quadrature of the projection field over the hemisphere;
        # the integrated field equals cos(offset), twice the outcome average;
        # pi/3 is the offset the oracle command prints
        for offset in (0.0, math.pi / 4, math.pi / 3, math.pi / 2, 1.1, 2.3, 2.9):
            p_plus = single_measure_prob(Hemisphere(Axis(0.0), 1), Axis(offset))
            average = 0.5 * p_plus - 0.5 * (1.0 - p_plus)
            assert 2.0 * average == pytest.approx(hemi_average_quadrature(offset), abs=1e-10)

    def test_measure_single_updates_ensemble(self):
        rng = substream(53)
        outcome, label = measure_single(rng, Hemisphere(Axis(0.0), 1), Axis(0.7))
        assert isinstance(label, Hemisphere)
        assert label.axis.theta == pytest.approx(0.7)
        assert label.sign == outcome


class TestPointwiseRuleCheck:
    def test_rule_disagrees_with_ensemble_law(self):
        # the deterministic pointwise rule predicts a piecewise-linear
        # average; the ensemble law predicts cos(d)/2 -- they split at pi/4
        a, b = Axis(0.0), Axis(math.pi / 4)
        linear = pointwise_rule_expectation(a, b)
        ensemble = math.cos(math.pi / 4) / 2.0
        assert abs(linear - ensemble) > 0.09

    def test_sampled_rule_matches_linear_form(self):
        # oracle: brute-force conditional hemisphere fraction on the sphere
        a, b = Axis(0.0), Axis(math.pi / 4)
        n = 400_000
        frac_plus = sample_pointwise_rule_counts(substream(61), a, b, n) / n
        linear = pointwise_rule_expectation(a, b)  # = (2 frac_plus - 1) / 2
        se = math.sqrt(frac_plus * (1 - frac_plus) / n)
        assert abs(frac_plus - (2 * linear + 1) / 2) < 5 * se
        oracle = hemisphere_conditional_fraction(400_000, substream(62))
        assert abs(frac_plus - oracle) < 10 * se

    def test_endpoints(self):
        assert pointwise_rule_expectation(Axis(0.0), Axis(0.0)) == 0.5
        assert pointwise_rule_expectation(Axis(0.0), Axis(math.pi)) == pytest.approx(-0.5)
        assert pointwise_rule_expectation(Axis(0.0), Axis(math.pi / 2)) == pytest.approx(0.0)
