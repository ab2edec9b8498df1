"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the console; each criterion also fails its test individually.
"""

import itertools
import json
import math

import numpy as np

from bellfoundry import model1, model2
from bellfoundry.cli import OPTIMAL_AXES, build_parser, load_config, run_simulate
from bellfoundry.engine import MODELS, chsh_std_error, run_pair_counts
from bellfoundry.geometry import (
    Axis,
    BELL_BOUND,
    TSIRELSON_BOUND,
    empirical_expectation,
)
from bellfoundry.lhv import (
    DeterministicSignModel,
    check_bell_theorem,
    chsh_value,
    quantum_wigner_violation,
    sign_model_expectation_analytic,
    vertex_distributions,
    joint_distribution_chsh,
    wigner_inequality_check,
)
from bellfoundry.model2 import (
    FieldSuperposition,
    Hemisphere,
    decompose_field,
    predictions_equal,
    two_party_prob,
)
from bellfoundry.quantum import (
    chsh_norm_grid,
    identity_residual_scan,
    singlet_expectation,
    singlet_joint_table,
)
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
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3)]
    target = math.sqrt(2.0) / 2.0

    analytic = chsh_value(
        *(singlet_expectation(axes[i], axes[j]) for i, j in pairs), sign_choice=1
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
            for k, (i, j) in enumerate(pairs)
        ]
        value = chsh_value(*(e.value for e in estimates), sign_choice=1)
        tol = 5.0 * chsh_std_error([e.std_error for e in estimates])
        ok &= abs(value - target) <= tol and value > BELL_BOUND
    _report(2, "CHSH violation", ok)


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

    # MC mode over a grid, within statistical tolerance
    grid = [Axis(k * math.pi / 4.0) for k in range(8)]
    value, tolerance = check_bell_theorem(DeterministicSignModel(), grid, 100_000, substream(2026))
    ok &= value <= BELL_BOUND + tolerance

    # the 16 deterministic vertex joint distributions
    worst_vertex = max(joint_distribution_chsh(f) for f in vertex_distributions())
    ok &= worst_vertex <= BELL_BOUND + 1e-15
    _report(3, "Bell bound for factorizable models", ok)


def test_criterion_4_operator_identity_and_tsirelson():
    residual = identity_residual_scan(1000, seed=2027)
    ok = residual < 1e-12
    _, best_norm = chsh_norm_grid(64)
    ok &= abs(best_norm - TSIRELSON_BOUND) < 1e-9
    ok &= best_norm <= TSIRELSON_BOUND + 1e-10
    _report(4, "operator identity and Tsirelson bound", ok)


def test_criterion_5_wigner_suite():
    model = DeterministicSignModel()
    rng = substream(2028)
    ok = True
    n = 200_000
    for batch in range(100):
        a, ap, b = (Axis(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=3))
        lhs, rhs, holds = wigner_inequality_check(model, a, ap, b)
        ok &= holds or lhs >= rhs - 1e-12
        mc_rng = substream(2028, stream=1, batch=batch)
        _, _, holds_mc = wigner_inequality_check(
            model, a, ap, b, mode="mc", n=n, rng=mc_rng, tolerance=1e-12
        )
        ok &= holds_mc
    lhs, rhs, violated = quantum_wigner_violation(
        Axis(math.pi / 4.0), Axis(math.pi / 2.0), Axis(0.0)
    )
    ok &= violated
    ok &= abs(lhs - 0.5) < 1e-12
    ok &= abs(rhs - math.sqrt(2.0) / 2.0) < 1e-12
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
