import math

import numpy as np
import pytest

from bellfoundry import model1
from bellfoundry.geometry import (
    Axis,
    counts_from_signs,
    empirical_expectation,
    wrap_delta,
)
from bellfoundry.model2 import (
    FieldSuperposition,
    Hemisphere,
    conditional_inference,
    decompose_field,
    epr_trial_model2,
    field_value,
    hemi_average,
    measure_prob_single,
    measure_sphere,
    predictions_equal,
    prepare_sphere,
    sample_trial_counts,
    superposition_probabilities,
    two_party_prob,
)
from bellfoundry.oracles import hemi_average_quadrature
from bellfoundry.quantum import singlet_expectation, singlet_joint_probability, spin_operator
from bellfoundry.rng import substream

GRID = [Axis(k * math.pi / 7) for k in range(14)]


class TestHemiField:
    def test_field_vanishes_off_support(self):
        f = Hemisphere(Axis(0.0), 1)
        assert field_value(f, np.array([0.0, 0.0, -1.0])) == 0.0

    def test_field_peaks_at_center(self):
        f = Hemisphere(Axis(0.0), 1)
        assert field_value(f, np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0 / math.pi)

    def test_minus_support_is_antipodal(self):
        f = Hemisphere(Axis(0.0), -1)
        assert field_value(f, np.array([0.0, 0.0, -1.0])) == pytest.approx(1.0 / math.pi)
        assert field_value(f, np.array([0.0, 0.0, 1.0])) == 0.0

    def test_hemi_average_matches_quadrature(self):
        for offset in (0.0, math.pi / 4, 1.1, 2.9):
            analytic = hemi_average(Axis(0.0), Hemisphere(Axis(offset), 1))
            assert analytic == pytest.approx(hemi_average_quadrature(offset), abs=1e-6)


class TestSingleMeasurement:
    def test_aligned_field_certain(self):
        a = Axis(0.8)
        assert measure_prob_single(Hemisphere(a, 1), a) == 1.0
        assert measure_prob_single(Hemisphere(a, -1), a) == pytest.approx(0.0)

    def test_probabilities_normalized(self):
        rng = substream(70)
        for _ in range(100):
            t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
            assert 0.0 <= measure_prob_single(Hemisphere(Axis(t1), 1), Axis(t2)) <= 1.0

    def test_orthogonal_axes_even(self):
        assert measure_prob_single(Hemisphere(Axis(0.0), 1), Axis(math.pi / 2)) == pytest.approx(0.5)


class TestEquivalence:
    def test_coefficients_unit_norm(self):
        rng = substream(71)
        for _ in range(50):
            a, u = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            cp, cm = decompose_field(Hemisphere(a, 1), u)
            assert cp**2 + cm**2 == pytest.approx(1.0)

    def test_equals_the_old_half_angle_form(self):
        angles = [0.0, math.pi, 5e-324, 1e-300, math.nextafter(2 * math.pi, 0.0)] + list(
            substream(75).uniform(0, 2 * math.pi, size=45)
        )
        for ta in angles:
            for tu in angles:
                a, u = Axis(ta), Axis(tu)
                half = (u.theta - a.theta) / 2.0
                assert decompose_field(Hemisphere(a, 1), u) == (math.cos(half), math.sin(half))

    def test_decomposition_preserves_predictions(self):
        rng = substream(72)
        for _ in range(25):
            a, u = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            direct = FieldSuperposition([(1.0, Hemisphere(a, 1))])
            cp, cm = decompose_field(Hemisphere(a, 1), u)
            rewritten = FieldSuperposition([(cp, Hemisphere(u, 1)), (cm, Hemisphere(u, -1))])
            assert predictions_equal(direct, rewritten, GRID)

    def test_inequivalent_fields_differ(self):
        # F(-a) and F(+u), u != a, predict differently from F(+a) on some grid axis
        rng = substream(77)
        for _ in range(25):
            a, u = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            direct = FieldSuperposition([(1.0, Hemisphere(a, 1))])
            flipped = FieldSuperposition([(1.0, Hemisphere(a, -1))])
            assert not predictions_equal(direct, flipped, GRID)
            assert not predictions_equal(flipped, direct, GRID)
            if abs(wrap_delta(a, u)) > 1e-3:
                other = FieldSuperposition([(1.0, Hemisphere(u, 1))])
                assert not predictions_equal(direct, other, GRID)
        # F(+0) and F(+0.5) agree along the bisector 0.25; one other axis splits them
        direct = FieldSuperposition([(1.0, Hemisphere(Axis(0.0), 1))])
        other = FieldSuperposition([(1.0, Hemisphere(Axis(0.5), 1))])
        assert predictions_equal(direct, other, [Axis(0.25)])
        assert not predictions_equal(direct, other, [Axis(0.25), Axis(0.0)])

    def test_composition_of_rewrites(self):
        # rewriting a -> u -> v must equal rewriting a -> v directly
        rng = substream(73)
        for _ in range(25):
            a, u, v = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=3))
            cp, cm = decompose_field(Hemisphere(a, 1), u)
            pp, pm = decompose_field(Hemisphere(u, 1), v)
            mp, mm = decompose_field(Hemisphere(u, -1), v)
            via_u = (cp * pp + cm * mp, cp * pm + cm * mm)
            direct = decompose_field(Hemisphere(a, 1), v)
            assert via_u[0] == pytest.approx(direct[0], abs=1e-12)
            assert via_u[1] == pytest.approx(direct[1], abs=1e-12)

    def test_rhs_particle_prob_examples(self):
        # after rewriting F(+a) on the u hemispheres, the particle lies in
        # the +u or -u hemisphere with the squared coefficients as weights
        a = Axis(0.6)
        cp, cm = decompose_field(Hemisphere(a, 1), a)
        assert cp**2 == pytest.approx(1.0)
        assert cm**2 == pytest.approx(0.0)
        cp, cm = decompose_field(Hemisphere(a, 1), Axis(a.theta + math.pi / 2))
        assert cp**2 == pytest.approx(0.5)
        assert cm**2 == pytest.approx(0.5)

    def test_rhs_particle_prob_normalized(self):
        rng = substream(74)
        for _ in range(50):
            a, u = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            for sign in (1, -1):
                cp, cm = decompose_field(Hemisphere(a, sign), u)
                assert cp**2 + cm**2 == pytest.approx(1.0)

    def test_superposition_rejects_vanishing_field(self):
        a = Axis(0.0)
        f = FieldSuperposition(
            [(1.0, Hemisphere(a, 1)), (-1.0, Hemisphere(a, 1))]
        )
        with pytest.raises(ValueError):
            superposition_probabilities(f, Axis(0.3))


class TestTwoPartyField:
    def test_joint_law_matches_singlet(self):
        rng = substream(75)
        for _ in range(100):
            label, tc, tb = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=3))
            for o1 in (1, -1):
                for o2 in (1, -1):
                    p = two_party_prob(label, tc, tb, o1, o2)
                    assert p == pytest.approx(
                        singlet_joint_probability(o1, tc, o2, tb), abs=1e-12
                    )

    def test_label_axis_irrelevant(self):
        c, b = Axis(0.4), Axis(1.9)
        base = two_party_prob(Axis(0.0), c, b, 1, -1)
        for label in GRID:
            assert two_party_prob(label, c, b, 1, -1) == pytest.approx(base, abs=1e-12)

    def test_conditional_inference_matches_joint(self):
        rng = substream(76)
        for _ in range(50):
            a, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            for o1 in (1, -1):
                p_plus = conditional_inference(a, a, o1, b)
                marginal = 0.5  # first outcome is unbiased
                joint_plus = two_party_prob(a, a, b, o1, 1)
                assert p_plus == pytest.approx(joint_plus / marginal, abs=1e-12)

    def test_inference_needs_matching_label(self):
        with pytest.raises(ValueError, match="inference undefined"):
            conditional_inference(Axis(0.0), Axis(0.3), 1, Axis(1.0))


def eigenprojector(axis, sign):
    """Projector onto the eigenvector of spin_operator(axis) with eigenvalue sign/2."""
    values, vectors = np.linalg.eigh(spin_operator(axis))
    v = vectors[:, values * sign > 0]
    return v @ v.conj().T


SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)  # (|+-> - |-+>)/sqrt(2)


class TestBornRule:
    """The half-angle amplitude against eigen-solved spin states, with no half-angle formula."""

    def test_single_hemifield_is_a_spin_eigenstate(self):
        rng = substream(84)
        for _ in range(200):
            a, b = (Axis(t) for t in rng.uniform(-2 * math.pi, 4 * math.pi, size=2))
            for field_sign in (1, -1):
                state = eigenprojector(a, field_sign)
                p_plus = measure_prob_single(Hemisphere(a, field_sign), b)
                for sign, got in ((1, p_plus), (-1, 1.0 - p_plus)):
                    born = np.trace(eigenprojector(b, sign) @ state).real
                    assert abs(got - born) < 1e-12

    def test_two_party_field_is_the_singlet_state(self):
        rng = substream(85)
        for _ in range(200):
            label, c, b = (Axis(t) for t in rng.uniform(-2 * math.pi, 4 * math.pi, size=3))
            for s1 in (1, -1):
                for s2 in (1, -1):
                    joint = np.kron(eigenprojector(c, s1), eigenprojector(b, s2))
                    born = (SINGLET @ joint @ SINGLET).real
                    assert abs(two_party_prob(label, c, b, s1, s2) - born) < 1e-12


REFERENCE_PAIRS = [(0.0, 0.0), (0.3, 1.1), (5.9, 4.2), (0.0, math.pi), (2.0, 2.0 + math.pi / 2)]


def reference_trial_counts(rng, a, b, n):
    """The batch law written out with +-1 sign arrays and a per-trial threshold array."""
    r1 = rng.standard_normal((n, 3))
    r1 = r1 / np.linalg.norm(r1, axis=1, keepdims=True)
    s1 = np.where(r1 @ a.unit_vector >= 0.0, 1, -1)
    half = wrap_delta(a, b) / 2.0
    p_plus = np.where(s1 > 0, math.sin(half) ** 2, math.cos(half) ** 2)
    s2 = np.where(rng.random(n) < p_plus, 1, -1)
    return counts_from_signs(s1, s2)


class TestEprTrials:
    def test_batch_equals_reference_law(self):
        for k, (ta, tb) in enumerate(REFERENCE_PAIRS):
            for n in (1, 999, 65_536):
                a, b = Axis(ta), Axis(tb)
                got = sample_trial_counts(substream(82, k), a, b, n)
                assert got == reference_trial_counts(substream(82, k), a, b, n)

    def test_same_axis_anticorrelated(self):
        a = Axis(1.4)
        counts = sample_trial_counts(substream(77), a, a, 50_000)
        assert counts.n_pp == 0 and counts.n_mm == 0

    def test_expectation_matches_singlet(self):
        for delta in (math.pi / 4, 1.0, 2.6):
            n = 400_000
            counts = sample_trial_counts(substream(78), Axis(0.0), Axis(delta), n)
            est = empirical_expectation(counts)
            assert abs(est.value - singlet_expectation(Axis(0.0), Axis(delta))) < 5 * est.std_error

    def test_scalar_trial_agrees_with_batch(self):
        a, b = Axis(0.0), Axis(math.pi / 3)
        rng = substream(79)
        n = 20_000
        signs = np.array(
            [epr_trial_model2(rng, a, b) for _ in range(n)]
        )
        value = (signs[:, 0] * signs[:, 1]).mean() / 4.0
        est = empirical_expectation(sample_trial_counts(substream(80), a, b, n))
        assert abs(value - est.value) < 5 * math.sqrt(2) * est.std_error


class FixedDraws:
    """A generator stub: one sphere point along +z or -z, and one uniform u."""

    def __init__(self, first_sign, u):
        self.first_sign = first_sign
        self.u = u

    def standard_normal(self, shape):
        return np.tile([0.0, 0.0, float(self.first_sign)], (shape[0], 1))

    def random(self, n):
        return np.full(n, self.u)


# At this angle the two models' thresholds differ in the last bits:
# (1 -+ cos d)/2 for model1, sin^2(d/2) and cos^2(d/2) for model2.
THRESHOLD_DELTA = 0.0031
OWN_THRESHOLDS = {
    "model1": (
        (1.0 - math.cos(THRESHOLD_DELTA)) / 2.0,
        (1.0 + math.cos(THRESHOLD_DELTA)) / 2.0,
    ),
    "model2": (math.sin(THRESHOLD_DELTA / 2.0) ** 2, math.cos(THRESHOLD_DELTA / 2.0) ** 2),
}


class TestThresholdBits:
    def test_the_two_models_thresholds_differ(self):
        for plus, minus in zip(OWN_THRESHOLDS["model1"], OWN_THRESHOLDS["model2"]):
            assert plus != minus

    @pytest.mark.parametrize("name", ["model1", "model2"])
    @pytest.mark.parametrize("first_sign", [1, -1])
    def test_second_outcome_flips_at_its_own_threshold(self, name, first_sign):
        sampler = {"model1": model1.sample_trial_counts, "model2": sample_trial_counts}[name]
        threshold = OWN_THRESHOLDS[name][0 if first_sign > 0 else 1]
        a, b = Axis(0.0), Axis(THRESHOLD_DELTA)

        def second_is_plus(u):
            counts = sampler(FixedDraws(first_sign, u), a, b, 1)
            if first_sign > 0:
                assert counts.n_pp + counts.n_pm == 1
                return counts.n_pp == 1
            assert counts.n_mp + counts.n_mm == 1
            return counts.n_mp == 1

        assert not second_is_plus(threshold)
        assert second_is_plus(math.nextafter(threshold, 0.0))


class TestSingleSphereSequence:
    def test_prepare_places_particle_in_support(self):
        rng = substream(81)
        field = Hemisphere(Axis(0.7), 1)
        for _ in range(50):
            state = prepare_sphere(rng, field)
            assert field.contains(state.particle)

    def test_repeat_measurement_is_stable(self):
        rng = substream(82)
        b = Axis(0.9)
        state = prepare_sphere(rng, Hemisphere(Axis(0.2), 1))
        outcome, state = measure_sphere(rng, state, b)
        for _ in range(5):
            again, state = measure_sphere(rng, state, b)
            assert again == outcome

    def test_noncommuting_sequence_statistics(self):
        # measure along b then c: the second outcome follows the law for a
        # field prepared along b, regardless of the original preparation
        rng = substream(83)
        b, c = Axis(0.0), Axis(math.pi / 3)
        n = 40_000
        hits = 0
        conditioned = 0
        for _ in range(n):
            state = prepare_sphere(rng, Hemisphere(Axis(1.5), 1))
            o1, state = measure_sphere(rng, state, b)
            o2, _ = measure_sphere(rng, state, c)
            if o1 > 0:
                conditioned += 1
                hits += o2 > 0
        expected = measure_prob_single(Hemisphere(b, 1), c)
        se = math.sqrt(expected * (1 - expected) / conditioned)
        assert abs(hits / conditioned - expected) < 5 * se
