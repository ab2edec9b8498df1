import math

import numpy as np
import pytest

from bellfoundry.geometry import (
    Axis,
    Hemisphere,
    counts_from_signs,
    empirical_expectation,
    wrap_delta,
)
from bellfoundry.model1 import (
    epr_trial,
    measure_single,
    pointwise_rule_expectation,
    sample_pointwise_rule_counts,
    sample_trial_counts,
    single_measure_prob,
)
from bellfoundry.oracles import hemi_average_quadrature, hemisphere_conditional_fraction
from bellfoundry.quantum import singlet_expectation
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
        # the integrated field equals cos(offset), twice the outcome average
        for offset in (0.0, math.pi / 4, math.pi / 2, 2.3):
            p_plus = single_measure_prob(Hemisphere(Axis(0.0), 1), Axis(offset))
            average = 0.5 * p_plus - 0.5 * (1.0 - p_plus)
            assert 2.0 * average == pytest.approx(hemi_average_quadrature(offset), abs=1e-10)

    def test_measure_single_updates_ensemble(self):
        rng = substream(53)
        outcome, label = measure_single(rng, Hemisphere(Axis(0.0), 1), Axis(0.7))
        assert isinstance(label, Hemisphere)
        assert label.axis.theta == pytest.approx(0.7)
        assert label.sign == outcome


REFERENCE_PAIRS = [(0.0, 0.0), (0.3, 1.1), (5.9, 4.2), (0.0, math.pi), (2.0, 2.0 + math.pi / 2)]


def reference_trial_counts(rng, a, b, n):
    """The batch law written out with +-1 sign arrays and a per-trial threshold array."""
    j = rng.standard_normal((n, 3))
    j = j / np.linalg.norm(j, axis=1, keepdims=True)
    s1 = np.where(j @ a.unit_vector >= 0.0, 1, -1)
    p_plus = (1.0 - s1 * math.cos(wrap_delta(a, b))) / 2.0
    s2 = np.where(rng.random(n) < p_plus, 1, -1)
    return counts_from_signs(s1, s2)


class TestEprTrials:
    def test_batch_equals_reference_law(self):
        for k, (ta, tb) in enumerate(REFERENCE_PAIRS):
            for n in (1, 999, 65_536):
                a, b = Axis(ta), Axis(tb)
                got = sample_trial_counts(substream(61, k), a, b, n)
                expected = reference_trial_counts(substream(61, k), a, b, n)
                assert got == expected

    def test_same_axis_perfectly_anticorrelated(self):
        a = Axis(0.9)
        counts = sample_trial_counts(substream(54), a, a, 50_000)
        assert counts.n_pp == 0 and counts.n_mm == 0

    def test_expectation_matches_singlet(self):
        for delta in (math.pi / 4, math.pi / 2, 1.9):
            n = 400_000
            counts = sample_trial_counts(substream(55), Axis(0.0), Axis(delta), n)
            est = empirical_expectation(counts)
            assert abs(est.value - singlet_expectation(Axis(0.0), Axis(delta))) < 5 * est.std_error

    def test_scalar_trial_agrees_with_batch(self):
        a, b = Axis(0.0), Axis(math.pi / 4)
        rng = substream(58)
        n = 20_000
        signs = np.array([epr_trial(rng, a, b) for _ in range(n)])
        value = (signs[:, 0] * signs[:, 1]).mean() / 4.0
        est = empirical_expectation(sample_trial_counts(substream(59), a, b, n))
        tol = 5 * math.sqrt(2) * est.std_error
        assert abs(value - est.value) < tol


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
