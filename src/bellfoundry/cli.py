"""Command-line driver: simulate, scan, verify, oracle.

Configuration comes from an optional JSON file plus flag overrides.
Reports are written as flat CSV plus a JSON summary and regenerate
byte-identically from (config, seed) regardless of thread count; timing
is printed to the console, never into the files.  Exit codes: 0 all
checks pass, 1 a check failed or a suite raised, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import sys
import time
import traceback
from typing import NamedTuple

import numpy as np

from . import oracles
from .engine import MODELS, chsh_std_error, run_counts
from .geometry import Axis, BELL_BOUND, TSIRELSON_BOUND, V_MAX, empirical_expectation
from .lhv import (
    WIGNER_TOLERANCE,
    ConstantResponseModel,
    DeterministicSignModel,
    check_bell_theorem,
    chsh_value,
    joint_distribution_chsh,
    quantum_wigner_violation,
    stochastic_defect,
    vertex_distributions,
    wigner_inequality_check,
)
from .quantum import chsh_norm_grid, chsh_operator, identity_residual_scan, singlet_expectation
from .quantum import singlet_joint_table
from .rng import BATCH_SIZE, substream

#: The four CHSH pairs as (label, first axis, second axis), indexing a quadruple (a, a', b, b').
PAIRS = (("ab", 0, 2), ("ab'", 0, 3), ("a'b", 1, 2), ("a'b'", 1, 3))

OPTIMAL_AXES = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)


class UsageError(Exception):
    pass


def _parse_axes(value):
    parts = value.replace(",", " ").split()
    if len(parts) != 4:
        raise UsageError(f"--axes needs four angles, got {value!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad angle in --axes: {exc}") from exc


#: Every config key with its default; a config file may set only these.
CONFIG_DEFAULTS = {
    "model": "quantum",
    "axes": [list(OPTIMAL_AXES)],
    "trials": 100_000,
    "seed": 1,
    "sign_choice": 1,
    "output": "bellfoundry_run",
    "threads": 1,
    "grid": 16,
}


#: Largest accepted ``threads``.  A fixed number, not one read from the machine, so a
#: config is valid or invalid everywhere alike; it bounds the OS threads a run starts.
MAX_THREADS = 64

#: Largest accepted ``trials``: batch indices are keyed in 32 bits (see ``rng``).
MAX_TRIALS = BATCH_SIZE << 32

#: Largest accepted ``grid``.  ``scan`` takes time of order grid**3 and memory of order
#: grid**2: at 512 about 1.4 s and a 50 MB peak on a 2-vCPU host.
MAX_GRID = 512


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_angle(value) -> bool:
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _check_seed(seed) -> None:
    """The one seed rule of every command: an integer in [0, 2**64)."""
    if not _is_int(seed) or not 0 <= seed < 1 << 64:
        raise UsageError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _validate_config(config: dict) -> None:
    """Raise UsageError unless every value has the type and range its key needs."""
    if not isinstance(config["model"], str) or config["model"] not in MODELS:
        raise UsageError(f"unknown model {config['model']!r}; choose from {sorted(MODELS)}")
    for key, low in (("trials", 1), ("threads", 1), ("grid", 2)):
        if not _is_int(config[key]) or config[key] < low:
            raise UsageError(f"{key} must be an integer >= {low}, got {config[key]!r}")
    for key, high in (("trials", MAX_TRIALS), ("threads", MAX_THREADS), ("grid", MAX_GRID)):
        if config[key] > high:
            raise UsageError(f"{key} must be <= {high}, got {config[key]!r}")
    _check_seed(config["seed"])
    if not _is_int(config["sign_choice"]) or config["sign_choice"] not in (1, -1):
        raise UsageError("sign_choice must be +1 or -1")
    if not isinstance(config["output"], str) or not config["output"]:
        raise UsageError("output must be a non-empty path prefix")
    axes = config["axes"]
    if not isinstance(axes, list) or not axes:
        raise UsageError("axes must be a non-empty list of quadruples")
    for quad in axes:
        if not isinstance(quad, list) or len(quad) != 4:
            raise UsageError("each axes entry must be a quadruple")
        if not all(_is_angle(t) for t in quad):
            raise UsageError(f"axes must be finite numbers, got {quad!r}")


def load_config(args) -> dict:
    config = copy.deepcopy(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                from_file = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        if not isinstance(from_file, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(from_file) - set(CONFIG_DEFAULTS))
        if unknown:
            raise UsageError(f"unknown config keys {unknown}; known keys are {sorted(CONFIG_DEFAULTS)}")
        config.update(from_file)
    for key in CONFIG_DEFAULTS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key == "axes":
            value = [_parse_axes(v) for v in value]
        elif key == "sign_choice":
            value = 1 if value == "+" else -1
        config[key] = value
    _validate_config(config)
    return config


def _std_error(x, missing: str) -> str:
    """A std error as ``repr`` writes it, or ``missing`` where it is None (too few trials)."""
    return missing if x is None else repr(x)


def _counts_csv(report: dict):
    """The counts CSV, one line per outcome cell of every pair, one chunk per pair."""
    yield "run_id,theta_a,theta_b,a1,b2,count,freq\n"
    for run in report["runs"]:
        for pair in run["pairs"]:
            # an axis read from a config file may be an int; the CSV writes every angle as a float
            head = f"{run['run_id']},{float(pair['theta_a'])!r},{float(pair['theta_b'])!r}"
            n_pp, n_pm, n_mp, n_mm = pair["counts"]
            total = n_pp + n_pm + n_mp + n_mm
            yield (f"{head},+1/2,+1/2,{n_pp},{n_pp / total!r}\n{head},+1/2,-1/2,{n_pm},{n_pm / total!r}\n"
                   f"{head},-1/2,+1/2,{n_mp},{n_mp / total!r}\n{head},-1/2,-1/2,{n_mm},{n_mm / total!r}\n")


def _summary_csv(report: dict):
    """The summary CSV: each pair's E and std error, then its run's CHSH line; a chunk per run."""
    yield "pair_id,E,std_error\n"
    for run in report["runs"]:
        run_id = run["run_id"]
        lines = [f"{run_id}:{pair['pair']},{pair['expectation']!r},{_std_error(pair['std_error'], 'nan')}\n"
                 for pair in run["pairs"]]
        lines.append(f"{run_id}:chsh,{run['chsh']!r},{_std_error(run['chsh_std_error'], 'nan')}\n")
        yield "".join(lines)


# The two templates of the JSON report, laid out as ``json.dumps(report, indent=2,
# sort_keys=True)`` writes a report of ``run_simulate``: keys sorted, two-space indent,
# one list item per line, numbers as ``repr`` writes them, null for a std error of None.
# Every string is a model name, pair label or flag, ASCII with nothing to escape, and
# every list is non-empty, so no other case of the encoder arises.
_PAIR_JSON = """\
        {
          "counts": [
            %r,
            %r,
            %r,
            %r
          ],
          "expectation": %r,
          "pair": "%s",
          "std_error": %s,
          "theta_a": %r,
          "theta_b": %r
        }"""

_RUN_JSON = """\
    {
      "axes": [
        %r,
        %r,
        %r,
        %r
      ],
      "bell_bound": %r,
      "chsh": %r,
      "chsh_std_error": %s,
      "flag": "%s",
      "pairs": [
%s
      ],
      "run_id": %r,
      "tsirelson_bound": %r
    }"""


def _report_json(report: dict):
    """The JSON report with its final newline, one chunk per run."""
    yield f'{{\n  "model": "{report["model"]}",\n  "runs": [\n'
    separator = ""
    for run in report["runs"]:
        pairs = ",\n".join([
            _PAIR_JSON % (*p["counts"], p["expectation"], p["pair"], _std_error(p["std_error"], "null"),
                          p["theta_a"], p["theta_b"])
            for p in run["pairs"]
        ])
        yield separator + _RUN_JSON % (
            *run["axes"], run["bell_bound"], run["chsh"], _std_error(run["chsh_std_error"], "null"),
            run["flag"], pairs, run["run_id"], run["tsirelson_bound"],
        )
        separator = ",\n"
    yield (f'\n  ],\n  "seed": {report["seed"]!r},\n  "sign_choice": {report["sign_choice"]!r},\n'
           f'  "trials": {report["trials"]!r}\n}}\n')


def _write_report_files(out: str, report: dict) -> None:
    """Write the three files from the report, whole or not at all.

    Each file goes to a temporary name beside its target; only when all
    three are written are they moved into place with ``os.replace``, so
    a failed write leaves the previous files and no temporary file.  Each
    chunk (a pair's counts lines, a run's summary lines or a run's JSON)
    is written as it is made; no file is held whole.
    """
    files = (("_counts.csv", _counts_csv(report)), ("_summary.csv", _summary_csv(report)),
             ("_report.json", _report_json(report)))
    moves = []
    try:
        for suffix, chunks in files:
            target = f"{out}{suffix}"
            temp = f"{target}.{os.urandom(8).hex()}.tmp"
            with open(temp, "x") as fh:
                moves.append((temp, target))
                fh.writelines(chunks)
        for temp, target in moves:
            os.replace(temp, target)
    finally:
        for temp, _ in moves:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def run_simulate(config: dict) -> dict:
    """Run trials for every configured axis quadruple; write CSV + JSON; return the report."""
    runner = MODELS[config["model"]]
    sign = config["sign_choice"]
    trials = config["trials"]
    threads = config["threads"]
    pairs = [
        (Axis(quad[i]), Axis(quad[j]), run_id * 4 + pair_idx)
        for run_id, quad in enumerate(config["axes"])
        for pair_idx, (_, i, j) in enumerate(PAIRS)
    ]
    all_counts = iter(run_counts(runner, pairs, trials, config["seed"], threads))
    runs = []
    for run_id, quad in enumerate(config["axes"]):
        estimates = []
        pair_reports = []
        for label, i, j in PAIRS:
            ta, tb = quad[i], quad[j]
            counts = next(all_counts)
            est = empirical_expectation(counts)
            estimates.append(est)
            pair_reports.append(
                {
                    "pair": label,
                    "theta_a": ta,
                    "theta_b": tb,
                    "counts": [counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm],
                    "expectation": est.value,
                    "std_error": None if math.isnan(est.std_error) else est.std_error,
                }
            )
        value = chsh_value(*(e.value for e in estimates), sign_choice=sign)
        std = chsh_std_error([e.std_error for e in estimates])
        if math.isnan(std):
            flag = "undetermined"
        elif value > BELL_BOUND + 5.0 * std:
            flag = "Bell bound violated"
        else:
            flag = "bound respected"
        runs.append(
            {
                "run_id": run_id,
                "axes": list(quad),
                "pairs": pair_reports,
                "chsh": value,
                "chsh_std_error": None if math.isnan(std) else std,
                "bell_bound": BELL_BOUND,
                "tsirelson_bound": TSIRELSON_BOUND,
                "flag": flag,
            }
        )
    report = {
        "model": config["model"],
        "trials": trials,
        "seed": config["seed"],
        "sign_choice": sign,
        "runs": runs,
    }
    _write_report_files(config["output"], report)
    return report


def run_scan(model: str, grid_resolution: int):
    """Grid-search the CHSH combination over coplanar quadruples with a = 0.

    Every pair expectation comes from the model's closed form.  Returns
    (axes quadruple, sign, best value).
    """
    if grid_resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    expectation = MODELS[model].analytic_expectation
    thetas = np.arange(grid_resolution) * (2.0 * math.pi / grid_resolution)
    axes = [Axis(t) for t in thetas]
    e1 = np.array([[expectation(a, b) for b in axes] for a in axes])
    e0 = e1[0]  # thetas[0] == 0.0, so this row is E(0, b)
    best_value = -math.inf
    best = None
    values = np.empty((grid_resolution,) * 2)
    for sign in (1, -1):
        # value[b, b'] = |E(0,b) - s E(0,b')| + |E(a',b) + s E(a',b')| for one a' at a time,
        # built in one reused buffer: float addition commutes exactly.  A strictly greater
        # value wins, so ties keep the first index in (sign, a', b, b') order, as one argmax
        # over the whole (a', b, b') cube would.  This writes the CHSH form itself instead of
        # calling lhv._chsh per a' row: that prints the same bytes, but allocates new arrays
        # per row and took 2.2x as long at grid 192 (some 50 times the page faults) and at 512.
        term1 = np.abs(e0[:, None] - sign * e0[None, :])
        for i, row in enumerate(e1):
            np.add(row[:, None], sign * row[None, :], out=values)
            np.abs(values, out=values)
            values += term1
            j, k = np.unravel_index(int(np.argmax(values)), values.shape)
            if values[j, k] > best_value:
                best_value = float(values[j, k])
                best = ((0.0, float(thetas[i]), float(thetas[j]), float(thetas[k])), sign)
    return best[0], best[1], best_value


class Check(NamedTuple):
    """One verify comparison: the value a check found and the bound it is held to."""

    name: str
    ok: bool
    value: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.value

    @property
    def line(self) -> str:
        return (
            f"check={self.name} status={'pass' if self.ok else 'FAIL'} "
            f"value={self.value:.12g} bound={self.bound:.12g} margin={self.margin:.12g}"
        )


def _vertex_chsh_max() -> float:
    """The largest joint-distribution CHSH over the 16 deterministic vertices."""
    return float(joint_distribution_chsh(vertex_distributions()).max())


def verify_chsh(seed: int) -> list[Check]:
    model = DeterministicSignModel()
    grid = [Axis(k * math.pi / 4.0) for k in range(8)]
    value, tolerance = check_bell_theorem(model, grid, 100_000, substream(seed, stream=101))
    bound = BELL_BOUND + tolerance
    worst_vertex = _vertex_chsh_max()
    axes = [Axis(t) for t in OPTIMAL_AXES]
    singlet = chsh_value(*(singlet_expectation(axes[i], axes[j]) for _, i, j in PAIRS))
    return [
        Check("chsh.sign_lhv_mc_grid", value <= bound, value, bound),
        Check("chsh.vertex_joint_distributions", worst_vertex <= BELL_BOUND + 1e-12,
              worst_vertex, BELL_BOUND),
        Check("chsh.singlet_violation",
              singlet > BELL_BOUND and abs(singlet - TSIRELSON_BOUND) < 1e-12,
              singlet, TSIRELSON_BOUND),
    ]


def verify_wigner(seed: int) -> list[Check]:
    model = DeterministicSignModel()
    rng = substream(seed, stream=102)
    worst_gap = math.inf
    holds_all = True
    for k in range(100):
        a, ap, b = (Axis(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=3))
        lhs, rhs, holds = wigner_inequality_check(model, a, ap, b, mode="analytic")
        worst_gap = min(worst_gap, lhs - rhs)
        mc_rng = substream(seed, stream=103, batch=k)
        # set inclusion makes the MC route hold for any masks, so it catches only a wrong clause
        # combination in lhv.wigner_measures: 1,000 draws catch all the mutants 100,000 catch
        _, _, holds_mc = wigner_inequality_check(model, a, ap, b, mode="mc", n=1_000, rng=mc_rng)
        holds_all &= holds and holds_mc
    lhs, rhs, violated = quantum_wigner_violation(
        Axis(math.pi / 4.0), Axis(math.pi / 2.0), Axis(0.0)
    )
    return [
        Check("wigner.deterministic_holds", holds_all, -worst_gap, WIGNER_TOLERANCE),
        Check("wigner.quantum_violates", violated, lhs, rhs),
    ]


#: Points per angle of the CHSH operator-norm grid that ``verify_tsirelson`` scans.
TSIRELSON_GRID = 64


def verify_tsirelson(seed: int) -> list[Check]:
    """The grid's largest CHSH operator norm is Tsirelson's; ``seed`` is not used."""
    best_norm = chsh_norm_grid(TSIRELSON_GRID)
    ok = abs(best_norm - TSIRELSON_BOUND) < 1e-9 and best_norm <= TSIRELSON_BOUND + 1e-10
    return [Check("tsirelson.grid_max_norm", ok, best_norm, TSIRELSON_BOUND)]


def verify_identity(seed: int) -> list[Check]:
    residual = identity_residual_scan(1000, seed)
    return [Check("identity.max_residual", residual < 1e-12, residual, 1e-12)]


def verify_stochastic_defect(seed: int) -> list[Check]:
    rng = substream(seed, stream=104)
    a = Axis(rng.uniform(0.0, 2.0 * math.pi))
    det = stochastic_defect(DeterministicSignModel(), a, 100_000, rng)
    const = stochastic_defect(ConstantResponseModel(0.5), a, 100_000, rng)
    return [
        Check("stochastic_defect.deterministic_model", det == 0.0, det, 0.0),
        Check("stochastic_defect.constant_half_model", abs(const - 0.5) < 1e-12, const, 0.5),
    ]


VERIFY_SUITES = {
    "chsh": verify_chsh,
    "wigner": verify_wigner,
    "tsirelson": verify_tsirelson,
    "identity": verify_identity,
    "stochastic-defect": verify_stochastic_defect,
}


def run_verify(suite: str, seed: int) -> list[Check]:
    """The checks of one suite, or of every suite in order for ``all``; a suite that raises
    gives one failed check, ``<suite>.raised_<exception type>``, and its traceback on stderr."""
    if suite != "all" and suite not in VERIFY_SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {sorted(VERIFY_SUITES)} or all")
    checks = []
    for name in VERIFY_SUITES if suite == "all" else [suite]:
        try:
            checks += VERIFY_SUITES[name](seed)
        except Exception as exc:  # a fault in one suite fails its check; the later suites still run
            traceback.print_exc()
            checks.append(Check(f"{name}.raised_{type(exc).__name__}", False, math.nan, math.nan))
    return checks


def run_oracle(seed: int) -> list[tuple[str, float]]:
    """Brute-force oracles behind the derived expected values, as (name, value) pairs."""
    op = chsh_operator(*(Axis(t) for t in OPTIMAL_AXES), 1)
    deltas = (math.pi / 2.0, math.pi / 4.0)
    # one walk of the lambda grid for the overlap and both sign-rule expectations
    (overlap,), expectations = oracles.circle_quadratures([(0.0, math.pi / 2.0)], deltas)
    # E(0, pi/4) from singlet_joint_table: each cell times its outcome product, summed row by row
    products = np.outer([V_MAX, -V_MAX], [V_MAX, -V_MAX])
    cells = products * singlet_joint_table(Axis(0.0), Axis(math.pi / 4.0))
    values = [
        ("singlet_expectation_pi_over_4", sum(cells.ravel().tolist())),
        # spectral norm of the optimal CHSH operator via numpy, straight from the array
        ("chsh_operator_norm_numpy", float(np.abs(np.linalg.eigvalsh(op)).max())),
        ("wigner_overlap_quadrature_pi_over_2", overlap),
        *((f"sign_model_quadrature_d={d:.6f}", e) for d, e in zip(deltas, expectations)),
        ("hemi_average_quadrature_pi_over_3", oracles.hemi_average_quadrature(math.pi / 3.0)),
        ("vertex_joint_chsh_max", _vertex_chsh_max()),
    ]
    # random-distribution sweep (Dirichlet) of the joint-distribution bound
    draws = substream(seed, stream=105).dirichlet(np.ones(16), size=10_000)
    worst_random = float(joint_distribution_chsh(draws.reshape(-1, 2, 2, 2, 2)).max())
    return values + [("dirichlet_joint_chsh_max", worst_random)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellfoundry",
        description="EPR-Bell correlation experiments: simulate, scan, verify, oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run seeded trials and write CSV/JSON reports")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--model", choices=sorted(MODELS))
    sim.add_argument("--axes", action="append", help="quadruple 'a,a_prime,b,b_prime' in radians")
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--sign", dest="sign_choice", choices=["+", "-"])
    sim.add_argument("--out", dest="output", help="output file prefix")
    sim.add_argument("--threads", type=int)

    scan = sub.add_parser("scan", help="grid-search axes maximizing the CHSH combination")
    scan.add_argument("--config", help="JSON config file")
    scan.add_argument("--model", choices=sorted(MODELS))
    scan.add_argument("--grid", type=int, help="grid resolution per angle")

    ver = sub.add_parser("verify", help="run an inequality verification suite")
    ver.add_argument("--suite", default="all", help="|".join([*VERIFY_SUITES, "all"]))
    ver.add_argument("--seed", type=int, default=1)

    orc = sub.add_parser("oracle", help="print brute-force oracle values")
    orc.add_argument("--seed", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "simulate":
            config = load_config(args)
            started = time.perf_counter()
            report = run_simulate(config)
            elapsed = time.perf_counter() - started
            for run in report["runs"]:
                print(
                    f"run={run['run_id']} chsh={run['chsh']:.6f} "
                    f"bell_bound={BELL_BOUND} flag={run['flag']}"
                )
            print(f"wrote {config['output']}_{{counts,summary}}.csv and _report.json "
                  f"({elapsed:.2f}s wall clock)")
            return 0
        if args.command == "scan":
            config = load_config(args)
            axes, sign, value = run_scan(config["model"], config["grid"])
            print(
                f"model={config['model']} best_axes={tuple(round(t, 10) for t in axes)} "
                f"sign={'+' if sign > 0 else '-'} chsh={value:.10f} "
                f"bell_bound={BELL_BOUND} tsirelson_bound={TSIRELSON_BOUND:.10f}"
            )
            return 0
        if args.command == "verify":
            _check_seed(args.seed)
            checks = run_verify(args.suite, args.seed)
            ok = all(check.ok for check in checks)
            for check in checks:
                print(check.line)
            print(f"suite={args.suite} overall={'pass' if ok else 'FAIL'}")
            return 0 if ok else 1
        if args.command == "oracle":
            _check_seed(args.seed)
            for name, value in run_oracle(args.seed):
                print(f"oracle={name} value={value!r}")
            return 0
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
