"""Model 2: hemifields on spheres, measurement as field rotation.

A single spin-1/2 is a unit sphere carrying a scalar field supported on
one hemisphere (value = projection on the hemisphere axis, Eq.-style
r.a/pi with radius 1) plus a point particle that must sit inside the
field's support.  A field is therefore its support ``Hemisphere``.  A
measurement along b rotates the field toward the apparatus axes.

One half-angle amplitude carries every prediction: ``decompose_field``
rewrites a field on the two hemispheres of any axis u, and its
coefficients are the amplitudes of the outcomes +1/2 and -1/2 along u.
A measurement along b is fixed by one number, P(+1/2), the square of the
amplitude of +1/2, so a + field along a gives
P(+1/2) = cos((theta_b - theta_a)/2)**2, and P(-1/2) is 1 - P(+1/2).
Pointwise field values are kept for particle-membership logic and
quadrature validation.

Fields superpose linearly, and superpositions on different hemispheres
can give identical predictions along every axis: an equivalence class.

Two correlated particles carry the antisymmetric two-sphere field
F1(+a) F2(-a) - F1(-a) F2(+a), named by its label axis a; its
predictions do not depend on a, so any representative may be used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Axis,
    Hemisphere,
    PairCounts,
    counts_from_signs,
    hemisphere_pair_signs,
    sample_unit_vectors,
    sign_index,
    wrap_delta,
)


@dataclass(frozen=True)
class FieldSuperposition:
    """Linear combination of hemifields: pairs (coefficient, support Hemisphere)."""

    terms: tuple

    def __init__(self, terms):
        terms = tuple((float(c), f) for c, f in terms)
        for c, f in terms:
            if not isinstance(f, Hemisphere):
                raise TypeError("terms must pair coefficients with a Hemisphere")
            if not math.isfinite(c):
                raise ValueError("superposition coefficients must be finite")
        object.__setattr__(self, "terms", terms)


def field_value(f: Hemisphere, r: np.ndarray) -> float:
    """Pointwise value at a surface point r of the hemifield supported on f."""
    r = np.asarray(r, dtype=float)
    if not f.contains(r):
        return 0.0
    center = Axis(f.effective_angle)
    return float(r @ center.unit_vector) / math.pi


def hemi_average(field_axis: Axis, average_hemisphere: Hemisphere) -> float:
    """Mean of the full projection field r.f/pi over a hemisphere.

    Equals cos(theta_field - theta_hemisphere) exactly; numeric surface
    quadrature reproduces it to 1e-6 (see the oracle suite).
    """
    return math.cos(field_axis.theta - average_hemisphere.effective_angle)


def decompose_field(field: Hemisphere, u: Axis) -> tuple:
    """The half-angle amplitudes (c_plus, c_minus) of a hemifield along u.

    F ~ c_plus F(+u) + c_minus F(-u), so F(+a) gives cos and sin of
    (theta_u - theta_a)/2.  The coefficients compose under repeated
    rewriting by the half-angle addition rules, and their squares are
    the outcome probabilities along u.
    """
    half = (u.theta - field.axis.theta) / 2.0
    if field.sign > 0:
        return math.cos(half), math.sin(half)
    return -math.sin(half), math.cos(half)


def measure_prob_single(initial: Hemisphere, b: Axis) -> float:
    """P(+1/2) for a measurement along b on a single hemifield.

    The apparatus rotates the field toward the measurement axes; the
    outcome's probability is its squared amplitude along b.
    """
    return decompose_field(initial, b)[0] ** 2


def superposition_probabilities(f: FieldSuperposition, b: Axis) -> float:
    """P(+1/2) for a measurement along b on a field superposition."""
    amp_plus = amp_minus = 0.0
    for c, t in f.terms:
        plus, minus = decompose_field(t, b)
        amp_plus += c * plus
        amp_minus += c * minus
    norm = amp_plus**2 + amp_minus**2
    if norm <= 0.0:
        raise ValueError("field superposition vanishes")
    return amp_plus**2 / norm


def predictions_equal(lhs: FieldSuperposition, rhs: FieldSuperposition, axis_grid) -> bool:
    """True iff both fields' P(+1/2), and so their statistics, agree to 1e-10 on every axis."""
    grid = list(axis_grid)
    if not grid:
        raise ValueError("the axis grid is empty: there is no axis to compare")
    return not any(
        abs(superposition_probabilities(lhs, b) - superposition_probabilities(rhs, b)) > 1e-10
        for b in grid
    )


def two_party_prob(label: Axis, c: Axis, b: Axis, c1: int, b2: int) -> float:
    """Joint probability for outcome signs (c1 along c, b2 along b).

    The amplitude of the two-sphere field labeled by ``label`` combines
    each particle's half-angle amplitudes over the two product terms,
    normalized by 2.  The result depends only on theta_b - theta_c,
    never on the label axis.  Opposite signs have probability
    cos((theta_b - theta_c)/2)**2 / 2 and same signs sin(...)**2 / 2,
    the singlet law.
    """
    i, j = sign_index(c1), sign_index(b2)
    plus, minus = Hemisphere(label, 1), Hemisphere(label, -1)
    amplitude = (
        decompose_field(plus, c)[i] * decompose_field(minus, b)[j]
        - decompose_field(minus, c)[i] * decompose_field(plus, b)[j]
    )
    return amplitude**2 / 2.0


def conditional_inference(label: Axis, measured_axis: Axis, a1: int, b: Axis) -> float:
    """P(B2 = +1/2 | A1) when the first measurement is unperturbing.

    Valid only when the field representative is labeled by the measured
    axis, in which case the first outcome reveals the particle hemisphere
    and the partner's field reduces to the opposite single hemifield.
    """
    if abs(wrap_delta(label, measured_axis)) > 1e-12:
        raise ValueError("inference undefined: field label does not match measured axis")
    return measure_prob_single(Hemisphere(label, -a1), b)


def epr_trial_model2(rng: np.random.Generator, first_axis: Axis, second_axis: Axis) -> tuple:
    """One two-particle trial, outcome signs (s1, s2), labeled by first_axis.

    r1 is uniform with r2 = -r1; the first outcome is r1's hemisphere
    along first_axis (no perturbation), the second is drawn from the
    conditional single-subsystem law.
    """
    r1 = sample_unit_vectors(rng, 1)[0]
    s1 = 1 if Hemisphere(first_axis, 1).contains(r1) else -1
    p_plus = conditional_inference(first_axis, first_axis, s1, second_axis)
    s2 = 1 if rng.random() < p_plus else -1
    return s1, s2


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
    """Sequential single-sphere measurement along b: (outcome sign, new state).

    The field rotates onto the b hemisphere matching the outcome, and the
    particle is redrawn uniformly inside the post-measurement hemisphere
    (the interaction may move it; the redistribution is uniform).
    Measurements along different axes do not commute.
    """
    sign = 1 if rng.random() < measure_prob_single(state.field, b) else -1
    post = Hemisphere(b, sign)
    return sign, prepare_sphere(rng, post)
