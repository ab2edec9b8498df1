"""Every argument guard raises its own error, with a message naming the fault."""

import math

import numpy as np
import pytest

from bellfoundry import cli, engine, oracles
from bellfoundry.geometry import Axis, ExpectationEstimate, Hemisphere, PairCounts
from bellfoundry.lhv import (
    ConstantResponseModel,
    DeterministicSignModel,
    SubsetSpec,
    chsh_value,
    joint_distribution_chsh,
    model_expectation,
    stochastic_defect,
    wigner_measure,
)
from bellfoundry.model2 import FieldSuperposition, predictions_equal
from bellfoundry.quantum import chsh_operator
from bellfoundry.rng import substream

A, B = Axis(0.0), Axis(math.pi / 4)
SPEC = SubsetSpec([(A, 1)])
F = FieldSuperposition([(1.0, Hemisphere(A, 1))])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: engine.run_counts(engine.MODELS["quantum"], [(A, B, 0)], 0, 1),
         ValueError, "trials must be >= 1"),
        (lambda: PairCounts(1, -1, 0, 0), ValueError, "counts must be nonnegative"),
        (lambda: ExpectationEstimate(0.3, 0.0), ValueError, "expectation magnitude exceeds"),
        (lambda: ConstantResponseModel(1.5), ValueError, "p must be a probability"),
        (lambda: model_expectation(DeterministicSignModel(), A, B, 0, substream(1)),
         ValueError, "trial count must be positive"),
        (lambda: chsh_value(0.0, 0.0, 0.0, 0.0, sign_choice=0), ValueError, "sign_choice must be"),
        (lambda: SubsetSpec([]), ValueError, "needs at least one clause"),
        (lambda: wigner_measure(DeterministicSignModel(), SPEC, "mc", 0, substream(1)),
         ValueError, "MC mode needs a positive n"),
        (lambda: wigner_measure(DeterministicSignModel(), SPEC, "exact"), ValueError, "unknown mode"),
        (lambda: FieldSuperposition([(1.0, A)]), TypeError, "pair coefficients with a Hemisphere"),
        (lambda: FieldSuperposition([(math.nan, Hemisphere(A, 1))]), ValueError,
         "coefficients must be finite"),
        (lambda: joint_distribution_chsh(np.full((2, 2, 2, 2), np.nan)), ValueError,
         "joint distribution must be finite"),
        (lambda: stochastic_defect(DeterministicSignModel(), A, 0, substream(1)),
         ValueError, "trial count must be positive"),
        (lambda: chsh_operator(A, B, A, B, sign_choice=0), ValueError, "sign_choice must be"),
        (lambda: cli._parse_axes("0,1,2,x"), cli.UsageError, "bad angle in --axes"),
        (lambda: oracles.sign_model_expectation_quadrature(0.5, 0), ValueError,
         "quadrature needs n >= 1"),
        (lambda: oracles.half_circle_overlap_quadrature(math.nan, 0.0), ValueError,
         "quadrature angles must be finite"),
        (lambda: chsh_value(math.nan, 0.0, 0.0, 0.0), ValueError, "or is NaN"),
        (lambda: ExpectationEstimate(math.nan, 0.0), ValueError, "or is NaN"),
        (lambda: oracles.hemi_average_quadrature(math.nan), ValueError,
         "quadrature offset must be finite"),
        (lambda: oracles.hemi_average_quadrature(math.inf), ValueError,
         "quadrature offset must be finite"),
        (lambda: oracles.hemi_average_quadrature(0.5, order=0), ValueError,
         "quadrature needs order >= 1"),
        (lambda: predictions_equal(F, F, [A], tolerance=math.nan), ValueError,
         "tolerance must be finite and nonnegative"),
    ],
    ids=[
        "run_counts_trials", "pair_counts_negative", "estimate_magnitude", "constant_p",
        "model_expectation_n", "chsh_value_sign", "subset_spec_empty", "mc_needs_n",
        "unknown_mode", "superposition_term", "superposition_finite", "joint_distribution_finite",
        "stochastic_defect_n", "chsh_operator_sign", "parse_axes", "quadrature_n",
        "quadrature_angle", "chsh_value_nan", "estimate_nan", "hemi_offset_nan",
        "hemi_offset_inf", "hemi_order", "predictions_tolerance",
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
