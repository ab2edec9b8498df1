"""Model 2: hemifields on spheres, measurement as field rotation.

A single spin-1/2 is a unit sphere carrying a scalar field supported on
one hemisphere (value = projection on the hemisphere axis, Eq.-style
r.a/pi with radius 1) plus a point particle that must sit inside the
field's support.  A measurement along b rotates the field toward the
apparatus axes; the outcome probabilities are squared averages of the
rotated field over the half-rotated hemispheres, which gives the
half-angle law P(+) = cos((theta_b - theta_a)/2)**2.

Fields superpose linearly, and superpositions on different hemispheres
can give identical predictions along every axis: an equivalence class.
All closed-form probabilities are evaluated through half-angle amplitude
bookkeeping; pointwise field values are kept for particle-membership
logic and quadrature validation.

Two correlated particles carry the antisymmetric two-sphere field
F1(+a) F2(-a) - F1(-a) F2(+a); its predictions do not depend on the
label axis a, so any representative may be used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Axis,
    Hemisphere,
    Outcome,
    PairCounts,
    counts_from_signs,
    hemisphere_pair_signs,
    outcome_from_sign,
    sample_unit_vectors,
    wrap_delta,
)

SPHERE_RADIUS = 1.0


@dataclass(frozen=True)
class HemiField:
    """Scalar field r.axis / (pi R^2) on its support hemisphere, 0 elsewhere."""

    support: Hemisphere


@dataclass(frozen=True)
class FieldSuperposition:
    """Linear combination of hemifields: list of (coefficient, HemiField)."""

    terms: tuple

    def __init__(self, terms):
        terms = tuple((float(c), f) for c, f in terms)
        for _, f in terms:
            if not isinstance(f, HemiField):
                raise TypeError("terms must pair coefficients with HemiField")
        object.__setattr__(self, "terms", terms)


def field_value(f: HemiField, r: np.ndarray) -> float:
    """Pointwise field value at a surface point r."""
    r = np.asarray(r, dtype=float)
    if not f.support.contains(r):
        return 0.0
    center = Axis(f.support.effective_angle)
    return float(r @ center.unit_vector) / (math.pi * SPHERE_RADIUS**2)


def hemi_average(field_axis: Axis, average_hemisphere: Hemisphere) -> float:
    """Mean of the full projection field r.f/pi over a hemisphere.

    Equals cos(theta_field - theta_hemisphere) exactly; numeric surface
    quadrature reproduces it to 1e-6 (see the oracle suite).
    """
    return math.cos(field_axis.theta - average_hemisphere.effective_angle)


def measure_prob_single(initial: Hemisphere, b: Axis) -> tuple:
    """(P_plus, P_minus) for a measurement along b on a single hemifield.

    The apparatus rotates the field toward the measurement axes; the
    outcome probability is the squared average of the rotated field over
    the half-rotated hemisphere, cos((theta_b - theta_initial)/2)**2 for +
    and sin(...)**2 for -, normalized by their sum.
    """
    half = (b.theta - initial.effective_angle) / 2.0
    p_plus = math.cos(half) ** 2
    return p_plus, 1.0 - p_plus


def equivalence_decompose(a: Axis, u: Axis) -> tuple:
    """Coefficients (c_plus, c_minus) with F(+a) ~ c_plus F(+u) + c_minus F(-u)."""
    return decompose_field(HemiField(Hemisphere(a, 1)), u)


def decompose_field(f: HemiField, u: Axis) -> tuple:
    """Rewrite any hemifield on the u hemispheres: (c_plus, c_minus).

    Extends equivalence_decompose to minus-sign fields; the coefficients
    compose under repeated rewriting by the half-angle addition rules.
    """
    half = (u.theta - f.support.axis.theta) / 2.0
    if f.support.sign > 0:
        return math.cos(half), math.sin(half)
    return -math.sin(half), math.cos(half)


def _term_amplitude(f: HemiField, b: Axis, outcome_sign: int) -> float:
    """Half-angle amplitude of one hemifield for an outcome along b.

    Chosen so that a + field along a gives cos((theta_a - theta_b)/2) for
    the + outcome and the decomposition coefficients compose like
    half-angle rotations; probabilities are amplitude squares.
    """
    half = (f.support.axis.theta - b.theta) / 2.0
    if f.support.sign > 0:
        return math.cos(half) if outcome_sign > 0 else -math.sin(half)
    return math.sin(half) if outcome_sign > 0 else math.cos(half)


def superposition_probabilities(f: FieldSuperposition, b: Axis) -> tuple:
    """(P_plus, P_minus) for a measurement along b on a field superposition."""
    amp_plus = sum(c * _term_amplitude(t, b, 1) for c, t in f.terms)
    amp_minus = sum(c * _term_amplitude(t, b, -1) for c, t in f.terms)
    norm = amp_plus**2 + amp_minus**2
    if norm <= 0.0:
        raise ValueError("field superposition vanishes")
    return amp_plus**2 / norm, amp_minus**2 / norm


def predictions_equal(
    lhs: FieldSuperposition,
    rhs: FieldSuperposition,
    axis_grid,
    tolerance: float = 1e-10,
) -> bool:
    """True iff both fields predict the same outcome statistics on every axis."""
    for b in axis_grid:
        pl = superposition_probabilities(lhs, b)
        pr = superposition_probabilities(rhs, b)
        if abs(pl[0] - pr[0]) > tolerance or abs(pl[1] - pr[1]) > tolerance:
            return False
    return True


def rhs_particle_prob(u: Axis, a: Axis, sign: int) -> float:
    """Particle-hemisphere probability inside the decomposed field.

    After rewriting F(+a) on the u hemispheres the particle distribution
    follows the term weights: P(U = sign/2) = cos((theta_c - theta_a)/2)**2,
    with theta_c the center of the signed u hemisphere.
    """
    return math.cos((Hemisphere(u, sign).effective_angle - a.theta) / 2.0) ** 2


@dataclass(frozen=True)
class TwoPartyField:
    """The antisymmetric two-sphere field F1(+a) F2(-a) - F1(-a) F2(+a)."""

    label_axis: Axis


def _rotated_average(field_angle: float, meas: Axis, outcome_sign: int) -> float:
    """Average of the rotated field over the half-rotated hemisphere.

    The apparatus axis for outcome -1/2 is the antipode of the measurement
    axis; the average is cos of half the angle from the field axis to the
    outcome's apparatus axis.
    """
    outcome_angle = Hemisphere(meas, outcome_sign).effective_angle
    return math.cos((outcome_angle - field_angle) / 2.0)


def two_party_prob(f: TwoPartyField, c: Axis, b: Axis, c1: Outcome, b2: Outcome) -> float:
    """Joint probability for outcomes (c1 along c, b2 along b).

    Combines the two product terms of the antisymmetric field through the
    half-rotated averages of each particle's field, normalized by 2.  The
    result depends only on theta_b - theta_c, never on the label axis:
    P(opposite signs) = cos((theta_b - theta_c)/2)**2 / 2 and
    P(same signs) = sin(...)**2 / 2, the singlet law.
    """
    a_plus = f.label_axis.theta
    a_minus = a_plus + math.pi
    amplitude = _rotated_average(a_plus, c, c1.sign) * _rotated_average(
        a_minus, b, b2.sign
    ) - _rotated_average(a_minus, c, c1.sign) * _rotated_average(a_plus, b, b2.sign)
    return amplitude**2 / 2.0


def conditional_inference(
    f: TwoPartyField, measured_axis: Axis, a1: Outcome, b: Axis
) -> tuple:
    """(P(B2=+|A1), P(B2=-|A1)) when the first measurement is unperturbing.

    Valid only when the field representative is labeled by the measured
    axis, in which case the first outcome reveals the particle hemisphere
    and the partner's field reduces to the opposite single hemifield.
    """
    if abs(wrap_delta(f.label_axis, measured_axis)) > 1e-12:
        raise ValueError("inference undefined: field label does not match measured axis")
    return measure_prob_single(Hemisphere(f.label_axis, -a1.sign), b)


def epr_trial_model2(rng: np.random.Generator, first_axis: Axis, second_axis: Axis) -> tuple:
    """One two-particle trial using the representative labeled by first_axis.

    r1 is uniform with r2 = -r1; the first outcome is r1's hemisphere
    along first_axis (no perturbation), the second is drawn from the
    conditional single-subsystem law.
    """
    f = TwoPartyField(first_axis)
    r1 = sample_unit_vectors(rng, 1)[0]
    s1 = 1 if Hemisphere(first_axis, 1).contains(r1) else -1
    p_plus, _ = conditional_inference(f, first_axis, outcome_from_sign(s1), second_axis)
    s2 = 1 if rng.random() < p_plus else -1
    return outcome_from_sign(s1), outcome_from_sign(s2)


def sample_trial_counts(
    rng: np.random.Generator, first_axis: Axis, second_axis: Axis, n: int
) -> PairCounts:
    """Vectorized batch of epr_trial_model2 outcomes."""
    half = wrap_delta(first_axis, second_axis) / 2.0
    # partner field is Hemisphere(a, -s1): P(+) = sin^2 for s1=+1, cos^2 for s1=-1
    plus1, plus2 = hemisphere_pair_signs(
        rng, first_axis.unit_vector, math.sin(half) ** 2, math.cos(half) ** 2, n
    )
    return counts_from_signs(plus1, plus2)


@dataclass(frozen=True)
class SphereState:
    """A single sphere: its hemifield and the particle position."""

    field: Hemisphere
    particle: np.ndarray


def prepare_sphere(rng: np.random.Generator, field: Hemisphere) -> SphereState:
    """Particle placed uniformly inside the field's support."""
    r = sample_unit_vectors(rng, 1)[0]
    if not field.contains(r):
        r = -r
    return SphereState(field=field, particle=r)


def measure_sphere(rng: np.random.Generator, state: SphereState, b: Axis) -> tuple:
    """Sequential single-sphere measurement along b.

    The field rotates onto the b hemisphere matching the outcome, and the
    particle is redrawn uniformly inside the post-measurement hemisphere
    (the interaction may move it; the redistribution is uniform).
    Measurements along different axes do not commute.
    """
    p_plus, _ = measure_prob_single(state.field, b)
    sign = 1 if rng.random() < p_plus else -1
    post = Hemisphere(b, sign)
    return outcome_from_sign(sign), prepare_sphere(rng, post)
