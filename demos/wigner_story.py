"""The set-measure route to the Bell bound, and where quantum theory exits.

For a deterministic hidden-variable model the outcome subsets of the
variable space obey plain set-theoretic inequalities.  This script prints the
measures of a few intersection subsets, verifies the three-axis
inequality on random triples, and then shows the angles at which the
singlet probabilities refuse to satisfy it.
"""

import math

from bellfoundry.geometry import Axis
from bellfoundry.lhv import (
    DeterministicSignModel,
    quantum_wigner_violation,
    wigner_inequality_check,
    wigner_measures,
)
from bellfoundry.rng import substream

model = DeterministicSignModel()

print("subset measures (analytic arc lengths):")
labels, subsets = zip(
    ("+a",            [(Axis(0.0), 1)]),
    ("+a & +b(90d)",  [(Axis(0.0), 1), (Axis(math.pi / 2), 1)]),
    ("+a & -a",       [(Axis(0.0), 1), (Axis(0.0), -1)]),
)
for label, measure in zip(labels, wigner_measures(model, subsets)):
    print(f"  M({label:12s}) = {measure:.4f}")

print()
rng = substream(3)
worst = math.inf
for _ in range(1000):
    a, ap, b = (Axis(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=3))
    lhs, rhs, holds = wigner_inequality_check(model, a, ap, b)
    worst = min(worst, lhs - rhs)
print("inequality M(+a'&+b) >= M(+a&+b) - M(+a&-a') on 1000 random triples:")
print(f"  smallest margin lhs - rhs = {worst:.3e}  (never below rounding level)")

print()
lhs, rhs, violated = quantum_wigner_violation(Axis(math.pi / 4), Axis(math.pi / 2), Axis(0.0))
print("singlet probabilities at theta_b=0, theta_a=pi/4, theta_a'=pi/2:")
print(f"  lhs = {lhs:.5f} < rhs = {rhs:.5f}  -> violated = {violated}")
print("no assignment of set measures can reproduce these numbers.")
