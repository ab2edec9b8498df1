import math
from functools import partial

import numpy as np
import pytest

from bellfoundry import model1
from bellfoundry.geometry import Axis, counts_from_signs, wrap_delta
from bellfoundry.model2 import (
    FieldSuperposition,
    Hemisphere,
    decompose_field,
    measure_prob_single,
    measure_sphere,
    predictions_equal,
    prepare_sphere,
    sample_trial_counts,
    superposition_probabilities,
    two_party_prob,
)
from bellfoundry.quantum import spin_operator
from bellfoundry.rng import substream

GRID = [Axis(k * math.pi / 7) for k in range(14)]


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

    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1e160, 1e300])
    def test_predictions_do_not_depend_on_scale(self, c):
        # a field and its nonzero multiples are one field
        b = Axis(0.5)
        for terms in ([(1.0, Hemisphere(Axis(0.0), 1))],
                      [(1.0, Hemisphere(Axis(0.0), 1)), (-0.3, Hemisphere(Axis(1.1), -1))]):
            unit = superposition_probabilities(FieldSuperposition(terms), b)
            scaled = FieldSuperposition([(c * w, f) for w, f in terms])
            assert abs(superposition_probabilities(scaled, b) - unit) < 1e-15

    def test_label_is_part_of_the_field(self):
        # one support under two labels: opposite amplitudes, so a superposition reads the label
        minus, plus = Hemisphere(Axis(0.7), -1), Hemisphere(Axis(0.7 + math.pi), 1)
        amplitudes = (0.34289780745545134, 0.9393727128473789)
        assert decompose_field(minus, Axis(0.0)) == amplitudes
        assert decompose_field(plus, Axis(0.0)) == pytest.approx(tuple(-x for x in amplitudes), abs=1e-15)
        other = (1.0, Hemisphere(Axis(0.2), 1))
        for field, p_plus in ((minus, 0.7174827670556151), (plus, 0.2825172329443849)):
            superposition = FieldSuperposition([(1.0, field), other])
            assert superposition_probabilities(superposition, Axis(0.0)) == p_plus

    def test_superposition_rejects_vanishing_field(self):
        a = Axis(0.0)
        f = FieldSuperposition(
            [(1.0, Hemisphere(a, 1)), (-1.0, Hemisphere(a, 1))]
        )
        with pytest.raises(ValueError):
            superposition_probabilities(f, Axis(0.3))


class TestTwoPartyField:
    def test_kernel_thresholds_match_joint(self):
        # the kernel's threshold after s1 lies within 1e-12 of
        # P(s1, +) / P(s1) for the two-party field labeled by a
        rng = substream(76)
        for _ in range(50):
            a, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            for first_sign in (1, -1):
                trial = partial(kernel_outcomes, sample_trial_counts, a, b, first_sign)
                s1, _ = trial(0.5)
                marginal = 0.5  # first outcome is unbiased
                p_plus = two_party_prob(a, a, b, s1, 1) / marginal
                assert trial(p_plus - 1e-12) == (s1, 1)
                assert trial(p_plus + 1e-12) == (s1, -1)


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


def model1_partner_plus(s1, a, b):
    """Model 1's P(particle 2 = +) after the +-1 signs s1: (1 -+ cos d)/2."""
    return (1.0 - s1 * math.cos(wrap_delta(a, b))) / 2.0


def model2_partner_plus(s1, a, b):
    """Model 2's P(particle 2 = +) after the +-1 signs s1: sin^2 or cos^2 of d/2."""
    half = wrap_delta(a, b) / 2.0
    return np.where(s1 > 0, math.sin(half) ** 2, math.cos(half) ** 2)


def reference_trial_counts(rng, a, b, n, partner_plus):
    """The batch law written out with +-1 sign arrays and a per-trial threshold array."""
    r1 = rng.standard_normal((n, 3))
    r1 = r1 / np.linalg.norm(r1, axis=1, keepdims=True)
    s1 = np.where(r1 @ a.unit_vector >= 0.0, 1, -1)
    s2 = np.where(rng.random(n) < partner_plus(s1, a, b), 1, -1)
    return counts_from_signs(s1, s2)


class TestEprTrials:
    @pytest.mark.parametrize(
        "sampler, partner_plus, seed",
        [
            (model1.sample_trial_counts, model1_partner_plus, 61),
            (sample_trial_counts, model2_partner_plus, 82),
        ],
        ids=["model1", "model2"],
    )
    def test_batch_equals_the_written_out_law(self, sampler, partner_plus, seed):
        for k, (ta, tb) in enumerate(REFERENCE_PAIRS):
            for n in (1, 999, 65_536):
                a, b = Axis(ta), Axis(tb)
                got = sampler(substream(seed, k), a, b, n)
                assert got == reference_trial_counts(substream(seed, k), a, b, n, partner_plus)


class FixedDraws:
    """A generator stub: sphere points along +z or -z, and uniforms u (a scalar without n)."""

    def __init__(self, first_sign, u):
        self.first_sign = first_sign
        self.u = u

    def standard_normal(self, shape):
        return np.tile([0.0, 0.0, float(self.first_sign)], (shape[0], 1))

    def random(self, n=None):
        return self.u if n is None else np.full(n, self.u)


def kernel_outcomes(sampler, a, b, first_sign, u):
    """The signs (s1, s2) of one kernel trial on FixedDraws(first_sign, u)."""
    counts = sampler(FixedDraws(first_sign, u), a, b, 1)
    cells = {(1, 1): counts.n_pp, (1, -1): counts.n_pm, (-1, 1): counts.n_mp, (-1, -1): counts.n_mm}
    (signs,) = [pair for pair, count in cells.items() if count]
    return signs


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
        assert kernel_outcomes(sampler, a, b, first_sign, threshold) == (first_sign, -1)
        below = math.nextafter(threshold, 0.0)
        assert kernel_outcomes(sampler, a, b, first_sign, below) == (first_sign, 1)

    @pytest.mark.parametrize(
        "sampler, law",
        [
            (model1.sample_trial_counts, model1.single_measure_prob),
            (sample_trial_counts, measure_prob_single),
        ],
        ids=["model1", "model2"],
    )
    def test_kernel_reads_the_single_particle_law(self, sampler, law):
        # particle 2 flips exactly at law(Hemisphere(a, -s1), b), the model's
        # own single-particle law, also where theta_b - theta_a must be
        # wrapped (|difference| > pi)
        rng = substream(78)
        for _ in range(50):
            a, b = (Axis(t) for t in rng.uniform(-2 * math.pi, 4 * math.pi, size=2))
            for first_sign in (1, -1):
                trial = partial(kernel_outcomes, sampler, a, b, first_sign)
                s1, _ = trial(0.5)
                p = law(Hemisphere(a, -s1), b)
                assert trial(math.nextafter(p, 0.0)) == (s1, 1)
                assert trial(p) == (s1, -1)

    def test_both_laws_read_the_wrapped_difference(self):
        # each single-particle law, bit for bit, against its formula at the
        # difference wrapped by math.remainder; many pairs lie more than pi apart
        rng = substream(79)
        for _ in range(200):
            a, b = (Axis(t) for t in rng.uniform(-2 * math.pi, 4 * math.pi, size=2))
            r = math.remainder(b.theta - a.theta, 2 * math.pi)
            for s in (1, -1):
                model1_law = (1 + s * math.cos(r)) / 2
                model2_law = (math.cos(r / 2) if s > 0 else math.sin(r / 2)) ** 2
                assert model1.single_measure_prob(Hemisphere(a, s), b) == model1_law
                assert measure_prob_single(Hemisphere(a, s), b) == model2_law


class TestSingleSphereSequence:
    def test_prepare_places_particle_in_support(self):
        rng = substream(81)
        field = Hemisphere(Axis(0.7), 1)
        for _ in range(50):
            state = prepare_sphere(rng, field)
            assert field.contains(state.particle)

    def test_mean_particle_is_half_the_axis(self):
        # r.a is uniform on [0, 1] (variance 1/12); each other component has variance 1/3
        rng = substream(51)
        field = Hemisphere(Axis(0.7), 1)
        particles = np.array([prepare_sphere(rng, field).particle for _ in range(20_000)])
        error = particles.mean(axis=0) - field.axis.unit_vector / 2.0
        assert np.abs(error).max() < 5.0 / math.sqrt(3 * 20_000)

    def test_particle_is_the_normalized_draw_or_its_mirror(self):
        v = substream(5).standard_normal((1, 3))
        r = (v / np.linalg.norm(v, axis=1, keepdims=True))[0]
        placed = [prepare_sphere(substream(5), Hemisphere(Axis(0.7), s)).particle for s in (1, -1)]
        assert {tuple(p) for p in placed} == {tuple(r), tuple(-r)}

    def test_repeat_measurement_is_stable(self):
        rng = substream(82)
        b = Axis(0.9)
        state = prepare_sphere(rng, Hemisphere(Axis(0.2), 1))
        outcome, state = measure_sphere(rng, state, b)
        for _ in range(5):
            again, state = measure_sphere(rng, state, b)
            assert again == outcome

    def test_noncommuting_sequence_statistics(self):
        # measure along b then c: the field becomes Hemisphere(b, o1) whatever
        # was prepared, so the outcome along c flips at that field's threshold
        b, c = Axis(0.0), Axis(math.pi / 3)
        for prepared in (Hemisphere(Axis(1.5), 1), Hemisphere(Axis(4.0), -1), Hemisphere(b, 1)):
            state = prepare_sphere(substream(83), prepared)
            p_plus = measure_prob_single(prepared, b)
            for o1, u in ((1, math.nextafter(p_plus, 0.0)), (-1, p_plus)):
                sign, after_b = measure_sphere(FixedDraws(1, u), state, b)
                assert sign == o1
                assert after_b.field == Hemisphere(b, o1)
                assert after_b.field.contains(after_b.particle)
                threshold = measure_prob_single(Hemisphere(b, o1), c)
                assert measure_sphere(FixedDraws(1, math.nextafter(threshold, 0.0)), after_b, c)[0] > 0
                assert measure_sphere(FixedDraws(1, threshold), after_b, c)[0] < 0
