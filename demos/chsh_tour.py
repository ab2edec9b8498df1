"""Walk through the CHSH combination: bound, violation, and operator norm.

Evaluates the four pair expectations at the standard optimal axes for the
analytic singlet, the deterministic sign model, and a Monte Carlo run of
each classical construction, then cross-checks the Tsirelson bound
against the spectral norm of the CHSH operator on a coarse grid.
"""

import math

from bellfoundry import model1, model2
from bellfoundry.cli import OPTIMAL_AXES, PAIRS
from bellfoundry.engine import chsh_std_error
from bellfoundry.geometry import Axis, BELL_BOUND, TSIRELSON_BOUND, empirical_expectation
from bellfoundry.lhv import chsh_value, sign_model_expectation_analytic
from bellfoundry.quantum import chsh_norm_grid, singlet_expectation
from bellfoundry.rng import substream

N = 400_000
axes = [Axis(t) for t in OPTIMAL_AXES]

print(f"Bell bound {BELL_BOUND}, Tsirelson bound {TSIRELSON_BOUND:.5f}")
print()

singlet = chsh_value(
    *(singlet_expectation(axes[i], axes[j]) for _, i, j in PAIRS), sign_choice=1
)
print(f"analytic singlet     chsh = {singlet:.5f}  (violates the bound)")

sign_lhv = chsh_value(
    *(sign_model_expectation_analytic(axes[i], axes[j]) for _, i, j in PAIRS),
    sign_choice=1,
)
print(f"deterministic model  chsh = {sign_lhv:.5f}  (saturates, never exceeds)")

for stream, (name, sampler) in enumerate(
    [("model1", model1.sample_trial_counts), ("model2", model2.sample_trial_counts)]
):
    estimates = [
        empirical_expectation(
            sampler(substream(2, stream=stream, batch=k), axes[i], axes[j], N)
        )
        for k, (_, i, j) in enumerate(PAIRS)
    ]
    value = chsh_value(*(e.value for e in estimates), sign_choice=1)
    std = chsh_std_error([e.std_error for e in estimates])
    print(f"{name} (MC)          chsh = {value:.5f} +- {std:.5f}")

print()
norm = chsh_norm_grid(24)
print(f"max CHSH operator norm over a 24^3 axis grid: {norm:.6f}")
print(f"sqrt(2)/2 = {math.sqrt(2) / 2:.6f}; the grid never exceeds it")
