"""Every argument guard raises its own error, with a message naming the fault."""

import math

import numpy as np
import pytest

from bellfoundry import cli, engine, oracles
from bellfoundry.geometry import Axis, ExpectationEstimate, Hemisphere, PairCounts
from bellfoundry.lhv import (
    ConstantResponseModel,
    DeterministicSignModel,
    chsh_value,
    joint_distribution_chsh,
    stochastic_defect,
    wigner_inequality_check,
    wigner_measures,
)
from bellfoundry.model2 import FieldSuperposition, predictions_equal
from bellfoundry.rng import substream

A, B = Axis(0.0), Axis(math.pi / 4)
SPEC = [(A, 1)]
F = FieldSuperposition([(1.0, Hemisphere(A, 1))])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: engine.run_counts(engine.MODELS["quantum"], [(A, B, 0)], 0, 1),
         ValueError, "trials must be >= 1"),
        (lambda: engine.run_counts(engine.MODELS["quantum"], [(A, B, 0)], True, 1),
         ValueError, "trials must be >= 1 and an int, got True"),
        (lambda: engine.run_counts(engine.MODELS["quantum"], [(A, B, 0)], 3, 1, 2.0),
         ValueError, "threads must be >= 1 and an int, got 2.0"),
        (lambda: PairCounts(1, -1, 0, 0), ValueError, "counts must be nonnegative"),
        (lambda: ExpectationEstimate(0.3, 0.0), ValueError, "expectation magnitude exceeds"),
        (lambda: ConstantResponseModel(1.5), ValueError, "p must be a probability"),
        (lambda: chsh_value(0.0, 0.0, 0.0, 0.0, sign_choice=0), ValueError, "sign_choice must be"),
        (lambda: wigner_measures(DeterministicSignModel(), [[]]), ValueError,
         "needs at least one clause"),
        (lambda: wigner_measures(DeterministicSignModel(), [SPEC], "mc", 0, substream(1)),
         ValueError, "MC mode needs a positive n"),
        (lambda: wigner_measures(DeterministicSignModel(), [SPEC], "exact"), ValueError,
         "unknown mode"),
        (lambda: FieldSuperposition([(1.0, A)]), TypeError, "pair coefficients with a Hemisphere"),
        (lambda: FieldSuperposition([(math.nan, Hemisphere(A, 1))]), ValueError,
         "coefficients must be finite"),
        (lambda: joint_distribution_chsh(np.full((2, 2, 2, 2), np.nan)), ValueError,
         "joint distribution must be finite"),
        (lambda: stochastic_defect(DeterministicSignModel(), A, 0, substream(1)),
         ValueError, "trial count must be positive"),
        (lambda: cli._parse_axes("0,1,2,x"), cli.UsageError, "bad angle in --axes"),
        (lambda: oracles.circle_quadratures((), [0.5], 0), ValueError,
         "quadrature needs n >= 1"),
        (lambda: oracles.circle_quadratures([(0.0, 1.0)], (), True), ValueError,
         "quadrature needs n >= 1 grid points and an int, got n=True"),
        (lambda: oracles.circle_quadratures((), [0.5], 10.0), ValueError,
         "quadrature needs n >= 1 grid points and an int, got n=10.0"),
        (lambda: oracles.half_circle_overlap_quadrature(math.nan, 0.0), ValueError,
         "quadrature angles must be finite"),
        (lambda: chsh_value(math.nan, 0.0, 0.0, 0.0), ValueError, "or is NaN"),
        (lambda: ExpectationEstimate(math.nan, 0.0), ValueError, "or is NaN"),
        (lambda: oracles.hemi_average_quadrature(math.nan), ValueError,
         "quadrature offset must be finite"),
        (lambda: oracles.hemi_average_quadrature(math.inf), ValueError,
         "quadrature offset must be finite"),
        (lambda: wigner_inequality_check(DeterministicSignModel(), A, B, A, mode="exact"),
         ValueError, "unknown mode"),
        (lambda: oracles.hemisphere_conditional_fraction(0, substream(1)), ValueError,
         "needs n >= 1 samples"),
        (lambda: predictions_equal(F, F, []), ValueError, "the axis grid is empty"),
        (lambda: oracles.hemisphere_conditional_fraction(1, substream(1)), ValueError,
         "no sample in the \\+a hemisphere"),
    ],
    ids=[
        "run_counts_trials", "run_counts_trials_bool", "run_counts_threads_float",
        "pair_counts_negative", "estimate_magnitude", "constant_p",
        "chsh_value_sign", "subset_spec_empty", "mc_needs_n",
        "unknown_mode", "superposition_term", "superposition_finite", "joint_distribution_finite",
        "stochastic_defect_n", "parse_axes", "quadrature_n",
        "quadrature_n_bool", "quadrature_n_float", "quadrature_angle", "chsh_value_nan",
        "estimate_nan", "hemi_offset_nan", "hemi_offset_inf", "wigner_check_unknown_mode",
        "conditional_fraction_n", "predictions_empty_grid", "conditional_fraction_empty_hemisphere",
    ],
)
def test_guard_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_bad_angle_in_axes_exits_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--axes", "0,1,2,x", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad angle in --axes") and "Traceback" not in err
    assert not (tmp_path / "run_report.json").exists()
