"""Model 2: hemifields on spheres, measurement as field rotation.

A single spin-1/2 is a unit sphere carrying a scalar field supported on
one hemisphere, of value r.a/pi at a point r of the support centred on a
(radius 1), plus a point particle that must sit inside the support.  A
field is its support with a label, ``Hemisphere(a, s)``; today the label
is part of the field, and ROADMAP item 16 decides that rule.  A
measurement along b rotates the field toward the apparatus axes.

One half-angle amplitude carries every prediction: ``decompose_field``
rewrites a field on the two hemispheres of any axis u, and its
coefficients are the amplitudes of the outcomes +1/2 and -1/2 along u.
A measurement along b is fixed by one number, P(+1/2), the square of the
amplitude of +1/2: a + field along a gives P(+1/2) = cos(d/2)**2 for
d = theta_b - theta_a, and P(-1/2) is 1 - P(+1/2).  The square has
period 2 pi in d, so ``measure_prob_single`` wraps d to (-pi, pi] like
every other law here.  The amplitudes have period 4 pi, and a
superposition reads their signs, so ``decompose_field`` keeps d unwrapped.
No prediction reads the field's pointwise value: particle membership is
``Hemisphere.contains``, and the oracles integrate their own.

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


def _amplitudes(sign: int, half: float) -> tuple:
    """(c_plus, c_minus) along u of a field of this sign, half = (theta_u - theta_a)/2."""
    if sign > 0:
        return math.cos(half), math.sin(half)
    return -math.sin(half), math.cos(half)


def decompose_field(field: Hemisphere, u: Axis) -> tuple:
    """The half-angle amplitudes (c_plus, c_minus) of a hemifield along u.

    F ~ c_plus F(+u) + c_minus F(-u), so F(+a) gives cos and sin of
    (theta_u - theta_a)/2.  The coefficients compose under repeated
    rewriting by the half-angle addition rules, and their squares are
    the outcome probabilities along u.  They read the label, not only the
    set: Hemisphere(a, -1) and Hemisphere(a + pi, 1) are one support but
    get opposite amplitudes, so a superposition's predictions depend on
    which label each term is written with: the label is part of the field.
    """
    return _amplitudes(field.sign, (u.theta - field.axis.theta) / 2.0)


def measure_prob_single(initial: Hemisphere, b: Axis) -> float:
    """P(+1/2) for a measurement along b on a single hemifield.

    The apparatus rotates the field toward the measurement axes; the
    outcome's probability is its squared amplitude along b.
    """
    return _amplitudes(initial.sign, wrap_delta(initial.axis, b) / 2.0)[0] ** 2


def superposition_probabilities(f: FieldSuperposition, b: Axis) -> float:
    """P(+1/2) for a measurement along b on a field superposition."""
    # nonzero multiples are one field; a power-of-two scale is exact and keeps the squares in range
    shift = math.frexp(max((abs(c) for c, _ in f.terms), default=0.0))[1]
    amp_plus = amp_minus = 0.0
    for c, t in f.terms:
        plus, minus = decompose_field(t, b)
        c = math.ldexp(c, -shift)
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


def sample_trial_counts(rng: np.random.Generator, a: Axis, b: Axis, n: int) -> PairCounts:
    """n trials, labelled by a so that the first measurement does not disturb the pair.

    r1 is uniform with r2 = -r1, and the first outcome s1 is r1's
    hemisphere along a.  The partner's field is then Hemisphere(a, -s1).
    """
    return counts_from_signs(*hemisphere_pair_signs(rng, a, b, n, measure_prob_single))


@dataclass(frozen=True)
class SphereState:
    """A single sphere: its hemifield and the particle position."""

    field: Hemisphere
    particle: np.ndarray


def prepare_sphere(rng: np.random.Generator, field: Hemisphere) -> SphereState:
    """Particle placed uniformly inside the field's support (a normalized Gaussian draw)."""
    v = rng.standard_normal((1, 3))
    r = (v / np.linalg.norm(v, axis=1, keepdims=True))[0]
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
