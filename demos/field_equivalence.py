"""Model 2 in action: field rewriting, the two-party field, and sequences.

Shows that a hemifield rewritten on a different axis pair makes the same
predictions everywhere, that the antisymmetric two-party field produces
the singlet law for any label axis, and that repeated single-sphere
measurements along one axis are stable while different axes interfere.
"""

import math

from bellfoundry.geometry import Axis
from bellfoundry.model2 import (
    FieldSuperposition,
    Hemisphere,
    decompose_field,
    measure_sphere,
    predictions_equal,
    prepare_sphere,
    superposition_probabilities,
    two_party_prob,
)
from bellfoundry.quantum import singlet_joint_table
from bellfoundry.rng import substream

a, u = Axis(0.3), Axis(1.4)
direct = FieldSuperposition([(1.0, Hemisphere(a, 1))])
cp, cm = decompose_field(Hemisphere(a, 1), u)
rewritten = FieldSuperposition([(cp, Hemisphere(u, 1)), (cm, Hemisphere(u, -1))])
grid = [Axis(k * math.pi / 16) for k in range(32)]
print(f"F(+a) rewritten on the u axes with coefficients ({cp:.4f}, {cm:.4f})")
print(f"identical predictions on a 32-axis grid: {predictions_equal(direct, rewritten, grid)}")
probe = Axis(2.0)
print(f"  e.g. P(+) along theta={probe.theta}: "
      f"{superposition_probabilities(direct, probe):.6f} vs "
      f"{superposition_probabilities(rewritten, probe):.6f}")

print()
c, b = Axis(0.0), Axis(math.pi / 3)
for label in (Axis(0.0), Axis(1.0), Axis(2.5)):
    p = two_party_prob(label, c, b, 1, -1)
    print(f"two-party P(+,-) with label axis {label.theta:.2f}: {p:.6f}")
print(f"singlet value:                            "
      f"{singlet_joint_table(c, b)[0, 1]:.6f}")

print()
rng = substream(4)
state = prepare_sphere(rng, Hemisphere(Axis(0.0), 1))
sequence = []
for axis in (Axis(0.0), Axis(0.0), Axis(math.pi / 2), Axis(0.0)):
    outcome, state = measure_sphere(rng, state, axis)
    sequence.append((axis.theta, outcome))
print("sequential single-sphere measurements (axis, outcome sign):")
print(f"  {sequence}")
print("repeats along one axis are stable; an interposed orthogonal axis")
print("re-randomizes the next outcome -- the measurements do not commute.")
