"""Simulation and verification engine for EPR-Bell correlation experiments.

Library layout:

- ``geometry``: axes, signed hemispheres, outcomes, pair counts,
  expectation estimates.
- ``rng``: Philox substreams keyed by (seed, stream, batch).
- ``linalg``: Hermiticity-checked spectral norm.
- ``quantum``: singlet closed forms and the operator-algebra CHSH bounds.
- ``lhv``: hidden-variable model contract, CHSH and joint-distribution
  bounds, Wigner set measures.
- ``model1``: ensemble angular-momentum model reproducing the singlet.
- ``model2``: hemifield/particle model with equivalence classes.
- ``oracles``: brute-force quadrature checks of the closed forms.
- ``engine`` / ``cli``: seeded parallel experiment runner and the
  ``bellfoundry`` command.
"""

__version__ = "0.1.0"
