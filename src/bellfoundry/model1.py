"""Model 1: classical angular momenta with ensemble-attached probabilities.

A source emits two unit angular momenta with J1 + J2 = 0, J1 uniform on
the sphere.  Measurement probabilities attach to a hemisphere ensemble as
a whole, not to the individual vector: under the ensemble centered on axis
a (positive side), the outcome along b is +1/2 with probability
(cos(theta_b - theta_a) + 1) / 2, so the outcome average equals the mean
projection over the ensemble.  That one number fixes the measurement, so
the law states only P(+1/2); P(-1/2) is 1 - P(+1/2).  Measuring fixes the
ensemble of both particles, which is where the singlet correlation comes
from: particle 1's outcome is its hemisphere along a, and particle 2 is
measured under the opposite ensemble.

The underlying stochastic motion inside the ensemble is not simulated as
a time process; only the ensemble-level probability law is observable.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    Axis,
    Hemisphere,
    PairCounts,
    V_MAX,
    counts_from_signs,
    hemisphere_pair_signs,
    wrap_delta,
)


def single_measure_prob(label: Hemisphere, b: Axis) -> float:
    """P(R_b = +1/2) for an outcome along b under a hemisphere ensemble.

    P(+1/2) = (cos(theta_b - theta_ensemble) + 1) / 2, the unique law
    whose outcome average matches the mean projection of the ensemble;
    for Hemisphere(a, s) that is (1 + s cos(theta_b - theta_a)) / 2.
    """
    return (1.0 + label.sign * math.cos(wrap_delta(label.axis, b))) / 2.0


def measure_single(
    rng: np.random.Generator, label: Hemisphere, b: Axis
) -> tuple:
    """Sample one outcome sign along b; subsequent measurements see the b ensemble."""
    sign = 1 if rng.random() < single_measure_prob(label, b) else -1
    return sign, Hemisphere(b, sign)


def sample_trial_counts(rng: np.random.Generator, a: Axis, b: Axis, n: int) -> PairCounts:
    """n trials, particle 1 along a and particle 2 along b, tallied into PairCounts.

    J1 is uniform on the sphere and J2 = -J1.  Particle 1's outcome s1 is
    J1's hemisphere along a (J1.a = 0 counts as +), and particle 2 is
    measured along b under the opposite ensemble Hemisphere(a, -s1).
    """
    return counts_from_signs(*hemisphere_pair_signs(rng, a, b, n, single_measure_prob))


def pointwise_rule_expectation(a: Axis, b: Axis) -> float:
    """Average outcome if a fixed pointwise rule R_b = sign(J.b)/2 held.

    Conditioning the deterministic hemisphere rule on the ensemble along a
    gives an expectation linear in the angle difference, distinguishable
    from the ensemble law's cos(d)/2 average; used by the
    no-elementary-probability check.
    """
    d = abs(wrap_delta(a, b))
    return V_MAX * (1.0 - 2.0 * d / math.pi)


def sample_pointwise_rule_counts(
    rng: np.random.Generator, a: Axis, b: Axis, n: int
) -> int:
    """Count of + outcomes along b in n trials under ensemble +a with the pointwise sign rule.

    Each trial draws J with a uniform direction in the +a hemisphere and answers sign(J.b).
    """
    j = rng.standard_normal((n, 3))
    j = np.where(Hemisphere(a, 1).contains(j)[:, None], j, -j)  # restrict to +a
    return int(np.count_nonzero(Hemisphere(b, 1).contains(j)))
