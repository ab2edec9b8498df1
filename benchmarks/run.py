#!/usr/bin/env python3
"""Benchmark for bellfoundry: closed-loop workloads of CLI calls.

Run from the repository root::

    python3 benchmarks/run.py --workload simulate-bulk --seed 1 --seconds 30 --trace 0

run.py generates every input from ``--seed``, writes it as config
files, and issues one CLI call at a time to a warm child process
(``benchmarks/child.py``) that calls ``bellfoundry.cli.main(argv)``.
Each call uses at most two threads.  Every call's output is checked.

Workloads, and why each was chosen:

simulate-bulk
    One random axis quadruple per model with millions of trials per pair
    (quantum 1e8, the Monte Carlo models 1e6), each model at threads=1 and
    threads=2.  The sampler kernels and the thread pool do the work, so a
    kernel gain or a threading change shows here, per model.
simulate-sweep
    128 random quadruples per model at 1,000 trials per pair (below one
    batch), one config file per model.  Per-pair overhead and report
    formatting and writing dominate: the same engine and cli code as
    simulate-bulk, stressed for overhead instead of throughput.
check
    ``verify --suite all``, ``oracle`` and ``scan --model quantum`` on a
    192-point grid.  Operator algebra, the Jacobi solve, set measures,
    Bell checks, quadrature and the scan's closed forms; no engine.

Output: human-readable metric lines, a ``provenance`` JSON line, then one
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A call fails when it exits non-zero or its output check fails.

With ``--trace 0`` the metrics are the end-to-end metrics gated in
BENCHMARK.json: ``setup_s`` (median wall time of a fresh interpreter that
imports bellfoundry and builds the CLI parser), ``round_ref`` (one call of
every slice of the workload, summed from per-slice median call times),
``rate_geomean_ref`` (geometric mean over slices of work per time: trials,
axis pairs or calls) and ``peak_rss_mb`` (the child's maximum RSS).  The two
timing metrics are in units of a fixed pure-Python reference loop that the
child times before every call: on a shared host the machine's speed drifts
by tens of percent between runs, and the ratio cancels most of that drift.
The per-command metrics named by the workloads (``trials_per_s.<model>``,
``pairs_per_s``, ``verify_s`` and so on) are printed in seconds.

With ``--trace 1`` the metrics are the per-layer metrics of a traced run,
whose spans are written to ``.bench_work/traces/``: counts and self times
from spans around calls into each module, and direct timings of each
module's public functions at fixed inputs.
``--workload all`` runs the three workloads and reports the named
per-command metrics of each.  ``--smoke`` shrinks every size.

Claims made while tuning on the development seeds are confirmed on the
held-out seed ``HELD_OUT_SEED``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

#: Seed kept out of tuning, for confirming later claims.
HELD_OUT_SEED = 90210

MODELS = ("quantum", "sign-lhv", "model1", "model2")
WORKLOADS = ("simulate-bulk", "simulate-sweep", "check")

END_TO_END = {
    "setup_s": "s",
    "round_ref": "ref",
    "rate_geomean_ref": "1/ref",
    "peak_rss_mb": "MB",
}

PER_LAYER_SPANS = {
    "rng.substreams": "count",
    "engine.batches": "count",
    "cli.report_bytes": "B",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}

PER_LAYER_PROBES = {
    "model1.batch_ms": "ms",
    "model2.batch_ms": "ms",
    "lhv.batch_ms": "ms",
    "quantum.batch_us": "us",
    "rng.substream_us": "us",
    "engine.self_s": "s",
    "engine.merge_us": "us",
    **{f"engine.speedup_2t.{m}": "ratio" for m in MODELS},
    "geometry.tally_ms": "ms",
    "quantum.norm_grid_s": "s",
    "linalg.spectral_norm_ms": "ms",
    "linalg.eigvalsh_ref_ms": "ms",
    "quantum.identity_scan_s": "s",
    "quantum.expectation_us": "us",
    "lhv.wigner_mc_ms": "ms",
    "lhv.bell_check_s": "s",
    "oracles.quadrature_ms": "ms",
    **{f"{layer}.bytes_per_trial": "B" for layer in ("quantum", "lhv", "model1", "model2")},
}

PER_LAYER = {**PER_LAYER_SPANS, **PER_LAYER_PROBES}

TSIRELSON = math.sqrt(2.0) / 2.0

#: oracle line -> (closed form, tolerance); None means "at most the Bell bound 1/2".
ORACLE_VALUES = {
    "singlet_expectation_pi_over_4": (-math.cos(math.pi / 4.0) / 4.0, 1e-12),
    "chsh_operator_norm_numpy": (TSIRELSON, 1e-12),
    "wigner_overlap_quadrature_pi_over_2": (0.25, 1e-6),
    "sign_model_quadrature_d=1.570796": (0.0, 1e-6),
    "sign_model_quadrature_d=0.785398": (-0.125, 1e-6),
    "hemi_average_quadrature_pi_over_3": (0.5, 1e-9),
    "vertex_joint_chsh_max": (0.5, 1e-12),
    "dirichlet_joint_chsh_max": None,
}


# ---------------------------------------------------------------- checks


def expectation(model: str, delta: float) -> float:
    """Closed-form E(a, b) at angle difference delta, written independently of the package."""
    d = abs(math.remainder(delta, 2.0 * math.pi))
    if model == "sign-lhv":
        return -0.25 * (1.0 - 2.0 * d / math.pi)
    return -0.25 * math.cos(d)


def chsh_closed_form(model: str, quad, sign: int = 1) -> float:
    a, ap, b, bp = quad
    e = [expectation(model, y - x) for x, y in ((a, b), (a, bp), (ap, b), (ap, bp))]
    return abs(e[0] - sign * e[1]) + abs(e[2] + sign * e[3])


def check_report(report: dict, model: str, quads, trials: int) -> list:
    """Problems with one simulate report: totals, and CHSH within 5 sigma of its closed form.

    A correct sampler fails one 5-sigma check with probability about 6e-7.
    """
    problems = []
    if report.get("model") != model or len(report.get("runs", ())) != len(quads):
        return [f"report does not describe {len(quads)} {model} runs"]
    for run, quad in zip(report["runs"], quads):
        for pair in run["pairs"]:
            if sum(pair["counts"]) != trials:
                problems.append(f"run {run['run_id']} pair {pair['pair']}: counts do not sum to {trials}")
        expected = chsh_closed_form(model, quad, report.get("sign_choice", 1))
        std = run["chsh_std_error"] or 0.0
        if abs(run["chsh"] - expected) > 5.0 * std:
            problems.append(
                f"run {run['run_id']}: chsh {run['chsh']!r} is more than 5 sigma "
                f"({std!r}) from {expected!r}"
            )
    return problems


def check_verify(stdout: str) -> list:
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].endswith("overall=pass"):
        return ["verify did not report overall=pass"]
    return []


def check_oracle(stdout: str) -> list:
    seen = {}
    for line in stdout.splitlines():
        if line.startswith("oracle="):
            name, _, value = line[len("oracle="):].partition(" value=")
            seen[name] = float(value)
    problems = []
    for name, expected in ORACLE_VALUES.items():
        if name not in seen:
            problems.append(f"oracle {name} missing")
        elif expected is None:
            if not 0.0 < seen[name] <= 0.5 + 1e-12:
                problems.append(f"oracle {name}={seen[name]!r} exceeds the Bell bound")
        elif abs(seen[name] - expected[0]) > expected[1]:
            problems.append(f"oracle {name}={seen[name]!r}, closed form {expected[0]!r}")
    return problems


def check_scan(stdout: str) -> list:
    for token in stdout.split():
        if token.startswith("chsh="):
            value = float(token[len("chsh="):])
            if abs(value - TSIRELSON) <= 1e-9:
                return []
            return [f"scan best chsh {value!r} is not the Tsirelson bound {TSIRELSON!r}"]
    return ["scan printed no chsh value"]


# ------------------------------------------------------------- workloads


@dataclass
class Call:
    """One CLI call of a workload round."""

    slice: str
    argv: list
    work: float
    check: Callable[[dict], list]
    outputs: tuple = ()
    repeat: int = 1  # calls per round; short calls repeat so their medians rest on more samples


@dataclass
class Workload:
    name: str
    calls: list
    after_round: Callable[[list], list] = field(default=lambda replies: [])


def _write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _report_files(prefix: str) -> tuple:
    return tuple(f"{prefix}{suffix}" for suffix in ("_counts.csv", "_summary.csv", "_report.json"))


def _simulate_call(slice_name, model, quads, trials, sim_seed, threads, work_dir) -> Call:
    tag = slice_name.replace("@", "_")
    config = _write_json(
        os.path.join(work_dir, f"{tag}.json"),
        {"model": model, "axes": quads, "trials": trials, "seed": sim_seed},
    )
    prefix = os.path.join(work_dir, tag)
    outputs = _report_files(prefix)

    def check(reply):
        with open(outputs[2]) as fh:
            return check_report(json.load(fh), model, quads, trials)

    argv = ["simulate", "--config", config, "--out", prefix, "--threads", str(threads)]
    return Call(slice_name, argv, float(trials * 4 * len(quads)), check, outputs)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build_workload(name: str, seed: int, work_dir: str, smoke: bool) -> Workload:
    gen = random.Random(f"{name}:{seed}")

    def quads(n):
        return [[gen.uniform(0.0, 2.0 * math.pi) for _ in range(4)] for _ in range(n)]

    if name == "simulate-bulk":
        calls = []
        for model in MODELS:
            trials = (100_000_000 if model == "quantum" else 1_000_000) // (500 if smoke else 1)
            quad = quads(1)
            sim_seed = gen.randrange(1, 1 << 32)
            for threads in (1, 2):
                call = _simulate_call(f"{model}@{threads}t", model, quad, trials, sim_seed, threads, work_dir)
                call.repeat = 3 if model == "quantum" else 1
                calls.append(call)

        def same_bytes(replies):
            # reports must not depend on the thread count
            last = {}
            for entry in replies:
                last[entry[0].slice] = entry
            problems = []
            for model in MODELS:
                one, two = last[f"{model}@1t"], last[f"{model}@2t"]
                if not one[2] and not two[2] and _digest(one[0].outputs) != _digest(two[0].outputs):
                    problems.append((two, f"reports differ from {one[0].slice}"))
            return problems

        return Workload(name, calls, same_bytes)
    if name == "simulate-sweep":
        calls = []
        for model in MODELS:
            sweep = quads(4 if smoke else 128)
            sim_seed = gen.randrange(1, 1 << 32)
            call = _simulate_call(model, model, sweep, 1000, sim_seed, 1, work_dir)
            call.work = float(4 * len(sweep))
            calls.append(call)
        return Workload(name, calls)
    if name == "check":
        verify_seed = gen.randrange(1, 1 << 31)
        suite = "stochastic-defect" if smoke else "all"
        scan_config = _write_json(
            os.path.join(work_dir, "scan.json"), {"model": "quantum", "grid": 16 if smoke else 192}
        )
        calls = [
            Call("verify", ["verify", "--suite", suite, "--seed", str(verify_seed)], 1.0,
                 lambda reply: check_verify(reply["stdout"])),
            Call("oracle", ["oracle", "--seed", str(verify_seed)], 1.0,
                 lambda reply: check_oracle(reply["stdout"]), repeat=4),
            Call("scan", ["scan", "--config", scan_config], 1.0,
                 lambda reply: check_scan(reply["stdout"]), repeat=4),
        ]
        return Workload(name, calls)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------- child


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BELLFOUNDRY_THREADS", None)  # would override each call's thread count
    env.pop("PYTHONPATH", None)
    # numpy's BLAS pool would add threads beyond the call's own two
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """The warm worker process; one request in flight at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), ROOT],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        self.info = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"benchmark child exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def measure_setup(samples: int) -> list:
    """Wall seconds for a fresh interpreter to import bellfoundry and build the CLI parser."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bellfoundry.cli as c; "
        "c.build_parser()"
    )
    argv = [sys.executable, "-c", code, SRC]
    env = child_env()
    subprocess.run(argv, env=env, check=True)  # untimed: fills the bytecode cache
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


# ----------------------------------------------------------- measurement


@dataclass
class Round:
    replies: list  # (call, reply, problems)
    report_bytes: int


def run_round(child: Child, workload: Workload, trace: bool) -> Round:
    replies = []
    report_bytes = 0
    schedule = [
        call
        for rep in range(max(c.repeat for c in workload.calls))
        for call in workload.calls
        if rep < call.repeat
    ]
    for call in schedule:
        reply = child.request(op="cli", argv=call.argv, trace=trace)
        if reply["rc"] != 0:
            problems = [f"exit code {reply['rc']}"]
        else:
            try:
                problems = call.check(reply)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"output check raised {exc!r}"]
        report_bytes += sum(os.path.getsize(p) for p in call.outputs if os.path.exists(p))
        replies.append((call, reply, problems))
    for entry, problem in workload.after_round(replies):
        entry[2].append(problem)
    return Round(replies, report_bytes)


def run_rounds(child: Child, workload: Workload, seconds: float, trace: bool) -> list:
    """Closed loop: whole rounds while the next one would end within half a round of `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(child, workload, trace))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds


def slice_times(rounds) -> dict:
    times = {}
    for rnd in rounds:
        for call, reply, _ in rnd.replies:
            times.setdefault(call.slice, []).append(reply["wall_s"])
    return times


def round_seconds(rounds) -> float:
    """One call of every slice: the sum of each slice's median call wall time."""
    return sum(statistics.median(t) for t in slice_times(rounds).values())


def reference_seconds(rounds) -> float:
    """Mean time of the reference loop over the run, without its top and bottom tenth.

    Calls run at the host's average speed over the run, which the mean
    of the loops timed before every call estimates; trimming keeps a stray
    stall from moving it.
    """
    ordered = sorted(x for rnd in rounds for _, reply, _ in rnd.replies for x in reply["reference_s"])
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def round_ref(rounds) -> float:
    """round_seconds in units of the run's reference loop time."""
    return round_seconds(rounds) / reference_seconds(rounds)


def tail(seconds) -> str:
    """Median plus the highest order statistic with at least ten samples beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    text = f"median={statistics.median(ordered):.6g}s"
    if n >= 21:
        k = n - 11
        text += f" p{100.0 * (k + 1) / n:.0f}={ordered[k]:.6g}s"
    return f"{text} n={n}"


def exact(name: str, values, problems: list) -> int:
    """A count that must repeat exactly in every round; records a problem otherwise."""
    if len(set(values)) != 1:
        problems.append(f"{name} differs between rounds: {values}")
    return values[0]


def e2e_metrics(workload: Workload, rounds, setup, peak_rss_mb) -> tuple:
    """(gated end-to-end metrics, named per-command metrics with their call times)."""
    times = slice_times(rounds)
    work = {call.slice: call.work for call in workload.calls}
    medians = {s: statistics.median(t) for s, t in times.items()}
    ref = reference_seconds(rounds)
    rates = [work[s] * ref / medians[s] for s in medians]
    gated = {
        "setup_s": statistics.median(setup),
        "round_ref": sum(medians.values()) / ref,
        "rate_geomean_ref": math.exp(sum(map(math.log, rates)) / len(rates)),
        "peak_rss_mb": peak_rss_mb,
    }
    named = {}
    if workload.name == "simulate-bulk":
        for model in MODELS:
            for threads, name in ((2, f"trials_per_s.{model}"), (1, f"trials_per_s_1t.{model}")):
                s = f"{model}@{threads}t"
                named[name] = (work[s] / medians[s], "1/s", times[s])
    elif workload.name == "simulate-sweep":
        named["pairs_per_s"] = (sum(work.values()) / sum(medians.values()), "1/s",
                                [sum(r) for r in zip(*times.values())])
    else:
        for s in ("verify", "oracle", "scan"):
            named[f"{s}_s"] = (medians[s], "s", times[s])
    return gated, named


def span_metrics(rounds, untraced_round_ref, problems: list) -> dict:
    def per_round(fn):
        return [sum(fn(reply["trace"]) for _, reply, _ in rnd.replies) for rnd in rounds]

    def count(name):
        return lambda t: t["counts"].get(name, 0)

    return {
        "rng.substreams": exact("rng.substreams", per_round(count("rng.substream")), problems),
        "engine.batches": exact(
            "engine.batches",
            per_round(lambda t: sum(n for k, n in t["counts"].items() if k.endswith(".batch"))),
            problems,
        ),
        "cli.report_bytes": rounds[0].report_bytes,
        "cli.self_s": statistics.median(per_round(lambda t: t["self_s"].get("cli.main", 0.0))),
        "trace_overhead": round_ref(rounds) / untraced_round_ref - 1.0,
    }


def span_shares(rounds) -> dict:
    """Per call slice: share of its traced wall time covered by each span name."""
    cover = {}
    wall = {}
    for rnd in rounds:
        for call, reply, _ in rnd.replies:
            wall[call.slice] = wall.get(call.slice, 0.0) + reply["wall_s"]
            for name, seconds in reply["trace"]["cover_s"].items():
                if name != "cli.main":
                    key = (call.slice, name)
                    cover[key] = cover.get(key, 0.0) + seconds
    return {key: seconds / wall[key[0]] for key, seconds in cover.items()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------------ main


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    work_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    child = None
    try:
        workload = build_workload(name, seed, work_dir, smoke)
        setup = [] if trace else measure_setup(3 if smoke else 7)
        child = Child()
        # one untimed round at smoke sizes finishes lazy imports and first-call set-up
        warm_dir = os.path.join(work_dir, "warmup")
        os.makedirs(warm_dir)
        run_round(child, build_workload(name, seed, warm_dir, True), False)
        problems = []
        if trace:
            plain = run_rounds(child, workload, seconds / 2.0, False)
            rounds = run_rounds(child, workload, seconds / 2.0, True)
            spans = span_metrics(rounds, round_ref(plain), problems)
            probes = child.request(op="probes", seed=seed, smoke=smoke)["probes"]
            trace_dir = os.path.join(WORK, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, f"{name}-seed{seed}-{os.getpid()}.jsonl")
            finish = child.request(op="finish", trace_path=trace_path)
            all_rounds = plain + rounds
        else:
            rounds = run_rounds(child, workload, seconds, False)
            finish = child.request(op="finish", trace_path=None)
            all_rounds = rounds
        report_bytes = [r.report_bytes for r in all_rounds]
        exact("cli.report_bytes", report_bytes, problems)
        info = child.info
    finally:
        if child is not None:
            child.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(r.replies) for r in all_rounds)
    failed = 0
    for rnd in all_rounds:
        for call, _, call_problems in rnd.replies:
            if call_problems:
                failed += 1
                problems.extend(f"{call.slice}: {p}" for p in call_problems)
    result = {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": len(all_rounds),
        "info": info,
        "reference_s": reference_seconds(all_rounds),
        "round_s": round_seconds(rounds),
    }
    if trace:
        result["per_layer"] = {**spans, **{k: probes[k] for k in PER_LAYER_PROBES}}
        result["shares"] = span_shares(rounds)
        result["trace_path"] = os.path.relpath(trace_path, ROOT)
        result["spans"] = finish["spans"]
    else:
        result["gated"], result["named"] = e2e_metrics(
            workload, rounds, setup, finish["peak_rss_mb"]
        )
        result["named"]["setup_s"] = (result["gated"]["setup_s"], "s", setup)
        result["named"]["peak_rss_mb"] = (finish["peak_rss_mb"], "MB", None)
        result["named"]["fail_ratio"] = (failed / attempted, "ratio", None)
    return result


def print_result(res: dict) -> None:
    print(f"workload={res['workload']} rounds={res['rounds']} calls={res['attempted']} "
          f"failed={res['failed']}")
    print(f"gate: {res['attempted']} calls checked, {len(res['problems'])} problems")
    for problem in res["problems"]:
        print(f"  FAIL {problem}")
    if "named" in res:
        for name, (value, unit, samples) in res["named"].items():
            print(f"metric {name} = {value:.6g} {unit}" + (f"  [{tail(samples)}]" if samples else ""))
        for name, value in res["gated"].items():
            print(f"gated {name} = {value:.6g} {END_TO_END[name]}")
    print(f"round_s = {res['round_s']:.6g} s (one call of every slice); "
          f"reference loop = {res['reference_s'] * 1e3:.6g} ms")
    if "per_layer" in res:
        for name, value in res["per_layer"].items():
            print(f"layer {name} = {value:.6g} {PER_LAYER[name]}")
        for (slice_name, span), share in sorted(res["shares"].items()):
            print(f"share {slice_name} {span} = {share:.3f} of wall")
        print(f"trace: {res['spans']} spans written to {res['trace_path']}")


def provenance(results, args) -> dict:
    info = results[0]["info"]
    samples = {}
    for res in results:
        for name, entry in res.get("named", {}).items():
            if entry[2]:
                samples[f"{res['workload']}:{name}"] = len(entry[2])
    return {
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "bellfoundry": info["bellfoundry"],
        "nproc": len(os.sched_getaffinity(0)),
        "batch_size": info["batch_size"],
        "git_commit": git_commit(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "samples": samples,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bellfoundry benchmark")
    parser.add_argument("--workload", required=True, help=f"{', '.join(WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bellfoundry", "__init__.py")):
        print(f"error: no bellfoundry sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_result(res)
        results.append(res)
    print("provenance " + json.dumps(provenance(results, args), sort_keys=True))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    if args.workload == "all":
        table = {}
        for res in results:
            table.update({f"{res['workload']}:{k}": v[:2] for k, v in res.get("named", {}).items()})
            table.update(
                {f"{res['workload']}:{k}": (v, PER_LAYER[k]) for k, v in res.get("per_layer", {}).items()}
            )
    elif args.trace:
        table = {k: (v, PER_LAYER[k]) for k, v in results[0]["per_layer"].items()}
    else:
        table = {k: (v, END_TO_END[k]) for k, v in results[0]["gated"].items()}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
