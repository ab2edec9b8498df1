"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the console; each criterion also fails its test individually.
Criteria 3-5 run the matching ``verify`` suites at their own seeds and
check by hand only what those suites do not.
"""

import itertools
import json
import math

import numpy as np

from bellfoundry import model1, model2
from bellfoundry.cli import (
    OPTIMAL_AXES,
    PAIRS,
    build_parser,
    load_config,
    run_simulate,
    run_verify,
)
from bellfoundry.engine import MODELS, chsh_std_error, run_pair_counts
from bellfoundry.geometry import Axis, BELL_BOUND, empirical_expectation
from bellfoundry.lhv import chsh_value, sign_model_expectation_analytic
from bellfoundry.model2 import (
    FieldSuperposition,
    Hemisphere,
    decompose_field,
    predictions_equal,
    two_party_prob,
)
from bellfoundry.quantum import singlet_expectation, singlet_joint_table
from bellfoundry.rng import substream

DELTAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3,
          3 * math.pi / 4, math.pi)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_singlet_reproduction():
    n = 1_000_000
    ok = True
    samplers = {
        "model1": model1.sample_trial_counts,
        "model2": model2.sample_trial_counts,
    }
    for stream, (name, sampler) in enumerate(samplers.items()):
        for k, delta in enumerate(DELTAS):
            a, b = Axis(0.0), Axis(delta)
            counts = sampler(substream(2024, stream=stream, batch=k), a, b, n)
            table = singlet_joint_table(a, b)
            freqs = np.array([counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm]) / n
            for freq, p in zip(freqs, table.ravel()):
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
                ok &= abs(freq - p) <= 5.0 * se
    _report(1, "singlet reproduction", ok)


def test_criterion_2_chsh_violation():
    axes = [Axis(t) for t in OPTIMAL_AXES]
    target = math.sqrt(2.0) / 2.0

    analytic = chsh_value(
        *(singlet_expectation(axes[i], axes[j]) for _, i, j in PAIRS), sign_choice=1
    )
    ok = abs(analytic - target) < 1e-12 and analytic > BELL_BOUND

    n = 1_000_000
    samplers = {
        "model1": model1.sample_trial_counts,
        "model2": model2.sample_trial_counts,
    }
    for stream, sampler in enumerate(samplers.values()):
        estimates = [
            empirical_expectation(
                sampler(substream(2025, stream=stream, batch=k), axes[i], axes[j], n)
            )
            for k, (_, i, j) in enumerate(PAIRS)
        ]
        value = chsh_value(*(e.value for e in estimates), sign_choice=1)
        tol = 5.0 * chsh_std_error([e.std_error for e in estimates])
        ok &= abs(value - target) <= tol and value > BELL_BOUND
    _report(2, "CHSH violation", ok)


def _checks_pass(seed: int, *suites: str) -> bool:
    return all(check.ok for suite in suites for check in run_verify(suite, seed))


def test_criterion_3_bell_bound():
    # exact analytic sweep of the full 16^4 coplanar grid
    thetas = np.arange(16) * (2.0 * math.pi / 16)
    e = np.array(
        [[sign_model_expectation_analytic(Axis(ta), Axis(tb)) for tb in thetas] for ta in thetas]
    )
    worst = -math.inf
    for sign in (1, -1):
        term1 = np.abs(e[:, None, :, None] - sign * e[:, None, None, :])
        term2 = np.abs(e[None, :, :, None] + sign * e[None, :, None, :])
        worst = max(worst, float((term1 + term2).max()))
    ok = worst <= BELL_BOUND + 1e-12

    # verify's chsh suite: the Monte Carlo grid, the 16 vertex distributions and the singlet
    ok &= _checks_pass(2026, "chsh")
    _report(3, "Bell bound for factorizable models", ok)


def test_criterion_4_operator_identity_and_tsirelson():
    ok = _checks_pass(2027, "identity", "tsirelson")
    _report(4, "operator identity and Tsirelson bound", ok)


def test_criterion_5_wigner_suite():
    checks = {check.name: check for check in run_verify("wigner", 2028)}
    ok = all(check.ok for check in checks.values())
    singlet = checks["wigner.quantum_violates"]
    ok &= abs(singlet.value - 0.5) < 1e-12
    ok &= abs(singlet.bound - math.sqrt(2.0) / 2.0) < 1e-12
    _report(5, "Wigner suite", ok)


def test_criterion_6_anticorrelation_and_marginals():
    n = 1_000_000
    a = Axis(0.9)
    ok = True
    for stream, runner in enumerate(MODELS.values()):
        counts = run_pair_counts(runner, a, a, n, 2029, stream, 2)
        ok &= counts.n_pp == 0 and counts.n_mm == 0
        se = math.sqrt(0.25 / n)
        ok &= abs((counts.n_pp + counts.n_pm) / n - 0.5) <= 5.0 * se
        ok &= abs((counts.n_pp + counts.n_mp) / n - 0.5) <= 5.0 * se
    _report(6, "anticorrelation and marginals", ok)


def test_criterion_7_equivalence_classes():
    grid = [Axis(k * 2.0 * math.pi / 64) for k in range(64)]
    rng = substream(2030)
    ok = True
    for _ in range(20):
        a, u = (Axis(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=2))
        direct = FieldSuperposition([(1.0, Hemisphere(a, 1))])
        cp, cm = decompose_field(Hemisphere(a, 1), u)
        rewritten = FieldSuperposition([(cp, Hemisphere(u, 1)), (cm, Hemisphere(u, -1))])
        ok &= predictions_equal(direct, rewritten, grid)
    c, b = Axis(0.4), Axis(1.7)
    labels = [Axis(k * 2.0 * math.pi / 16) for k in range(16)]
    for o1, o2 in itertools.product((1, -1), repeat=2):
        base = two_party_prob(labels[0], c, b, o1, o2)
        for label in labels[1:]:
            ok &= abs(two_party_prob(label, c, b, o1, o2) - base) <= 1e-12
    _report(7, "equivalence classes", ok)


def test_criterion_8_determinism(tmp_path):
    ok = True
    for model in ("quantum", "model1"):
        outputs = []
        for threads, tag in ((1, "one"), (4, "four")):
            out = tmp_path / f"{model}_{tag}"
            args = build_parser().parse_args(
                [
                    "simulate", "--model", model, "--trials", "100000",
                    "--seed", "2031", "--threads", str(threads), "--out", str(out),
                ]
            )
            run_simulate(load_config(args))
            outputs.append(
                tuple(
                    (tmp_path / f"{model}_{tag}{suffix}").read_bytes()
                    for suffix in ("_counts.csv", "_summary.csv", "_report.json")
                )
            )
        ok &= outputs[0] == outputs[1]
        report = json.loads(outputs[0][2].decode())
        ok &= report["seed"] == 2031
    _report(8, "determinism", ok)
