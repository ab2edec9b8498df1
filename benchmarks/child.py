"""Warm worker process for ``benchmarks/run.py``.

Started as ``python3 benchmarks/child.py <repo root>``.  It imports
bellfoundry from ``<root>/src`` once, then answers one JSON request per
line on stdin with one JSON line on stdout:

``{"op": "cli", "argv": [...], "trace": bool}``
    Times a fixed reference loop three times, then runs
    ``bellfoundry.cli.main(argv)`` with its printed output captured.
    Returns the exit code, the call's wall time, the reference times, the
    captured output and, when traced, per-call span aggregates.
``{"op": "probes", "seed": int, "smoke": bool}``
    Times single layers by calling their public functions directly.
``{"op": "finish", "trace_path": str or null}``
    Writes the recorded spans as JSON lines and returns the peak RSS.

Tracing wraps public functions at their call sites, that is the module
attribute the caller looks up when it calls, and restores the originals
after every call, so untraced calls run the unmodified program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
import tracemalloc

ROOT = os.path.abspath(sys.argv[1])
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import bellfoundry  # noqa: E402
from bellfoundry import cli, engine, lhv, oracles, quantum, rng  # noqa: E402
from bellfoundry.geometry import Axis, PairCounts, counts_from_signs  # noqa: E402

#: Layer (module) name of each CLI model's batch sampler.
MODEL_LAYER = {"quantum": "quantum", "sign-lhv": "lhv", "model1": "model1", "model2": "model2"}

#: Call sites wrapped in a traced call: (module, attribute, span name).
CALL_SITES = (
    (cli, "run_pair_counts", "engine.run_pair_counts"),
    (engine, "substream", "rng.substream"),
    (cli, "substream", "rng.substream"),
    (quantum, "spectral_norm", "linalg.spectral_norm"),
    (cli, "chsh_norm_grid", "quantum.chsh_norm_grid"),
    (cli, "identity_residual_scan", "quantum.identity_residual_scan"),
    (cli, "check_bell_theorem", "lhv.check_bell_theorem"),
    (cli, "wigner_inequality_check", "lhv.wigner_inequality_check"),
    (cli, "quantum_wigner_violation", "lhv.quantum_wigner_violation"),
    (cli, "stochastic_defect", "lhv.stochastic_defect"),
    (cli, "joint_distribution_chsh", "lhv.joint_distribution_chsh"),
    (oracles, "hemi_average_quadrature", "oracles.hemi_average_quadrature"),
)


class Tracer:
    """In-memory spans: (id, parent, name, start, end, thread, call)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.call = 0
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            # pool threads have no open span of their own: their parent is
            # the innermost span open on the main thread, which submitted them
            owner = stack or self._stacks.get(self._main) or [None]
            parent = owner[-1]
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, parent, name, start, end, ident, self.call))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site, and every registered model sampler, for one call."""
        saved = []
        for module, attr, name in CALL_SITES:
            original = getattr(module, attr, None)
            if original is not None:
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
        models = dict(engine.MODELS)
        for key, runner in models.items():
            layer = MODEL_LAYER.get(key, key)
            engine.MODELS[key] = dataclasses.replace(
                runner, sample_counts=self.wrap(f"{layer}.batch", runner.sample_counts)
            )
        try:
            yield
        finally:
            engine.MODELS.update(models)
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, thread, call in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run_id": self.run_id,
                            "call": call,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    return {s[0]: (s[4] - s[3]) - union_length(children.get(s[0], ())) for s in spans}


def summarize(spans) -> dict:
    """Per-call aggregates: counts, self times and time covered per span name."""
    own = self_times(spans)
    counts = {}
    self_by_name = {}
    by_name = {}
    for span in spans:
        name = span[2]
        counts[name] = counts.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own[span[0]]
        by_name.setdefault(name, []).append((span[3], span[4]))
    return {
        "counts": counts,
        "self_s": self_by_name,
        "cover_s": {name: union_length(iv) for name, iv in by_name.items()},
    }


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop that runs no bellfoundry code.

    Timed before every CLI call, it samples how fast the host runs code
    at that moment, so run.py can express call times in units of it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i
    return time.perf_counter() - start


def run_cli(argv, tracer):
    reference = [reference_loop() for _ in range(3)]
    out = io.StringIO()
    main = cli.main
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.call += 1
            first = len(tracer.spans)
            stack.enter_context(tracer.installed())
            main = tracer.wrap("cli.main", cli.main)
        stack.enter_context(contextlib.redirect_stdout(out))
        start = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - start
    reply = {"rc": rc, "wall_s": wall, "stdout": out.getvalue(), "reference_s": reference}
    if tracer is not None:
        reply["trace"] = summarize(tracer.spans[first:])
    return reply


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_probes(seed: int, smoke: bool) -> dict:
    """Direct timings of each layer's public functions at fixed inputs."""
    n = 4096 if smoke else rng.BATCH_SIZE
    reps = 3 if smoke else 15
    a, b = Axis(0.3), Axis(1.1)
    out = {}
    for key, runner in engine.MODELS.items():
        layer = MODEL_LAYER.get(key, key)
        batches = iter(range(1 << 20))
        t = median_time(lambda: runner.sample_counts(rng.substream(seed, 0, next(batches)), a, b, n), reps)
        if layer == "quantum":
            out["quantum.batch_us"] = t * 1e6
        else:
            out[f"{layer}.batch_ms"] = t * 1e3
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        runner.sample_counts(rng.substream(seed, 1, 0), a, b, n)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        # computed from the sizes of the arrays one batch allocates, not measured traffic
        out[f"{layer}.bytes_per_trial"] = peak / n

    k = 200 if smoke else 2000
    out["rng.substream_us"] = median_time(
        lambda: [rng.substream(seed, 2, i) for i in range(k)], 5
    ) / k * 1e6

    signs = np.where(rng.substream(seed, 3).random((2, n)) < 0.5, 1, -1)
    out["geometry.tally_ms"] = median_time(lambda: counts_from_signs(signs[0], signs[1]), reps) * 1e3

    merges = 4096
    parts = [PairCounts(i, i + 1, i + 2, i + 3) for i in range(merges)]

    def merge_all():
        total = PairCounts(0, 0, 0, 0)
        for p in parts:
            total = total + p
        return total

    out["engine.merge_us"] = median_time(merge_all, 5) / merges * 1e6

    # run_pair_counts self time: quantum at 2 threads, where pool overhead dominates
    q_trials = rng.BATCH_SIZE * (16 if smoke else 256)
    self_s = []
    for rep in range(3):
        tracer = Tracer("probe")
        with tracer.installed():
            tracer.wrap("engine.run_pair_counts", engine.run_pair_counts)(
                engine.MODELS["quantum"], a, b, q_trials, seed, rep, 2
            )
        root = next(s for s in tracer.spans if s[2] == "engine.run_pair_counts")
        self_s.append(self_times(tracer.spans)[root[0]])
    out["engine.self_s"] = statistics.median(self_s)

    for key, runner in engine.MODELS.items():
        batches = (64 if key == "quantum" else 2) if smoke else (400 if key == "quantum" else 8)
        trials = batches * rng.BATCH_SIZE
        one, two = [], []
        for rep in range(3):
            for threads, dest in ((1, one), (2, two)):
                start = time.perf_counter()
                engine.run_pair_counts(runner, a, b, trials, seed, 10 + rep, threads)
                dest.append(time.perf_counter() - start)
        out[f"engine.speedup_2t.{key}"] = statistics.median(one) / statistics.median(two)

    out["quantum.norm_grid_s"] = median_time(lambda: quantum.chsh_norm_grid(8 if smoke else 64), 1)
    mats = rng.substream(seed, 4).standard_normal((512 if smoke else 4096, 4, 4))
    mats = mats + np.swapaxes(mats, -1, -2)
    linalg = importlib.import_module("bellfoundry.linalg")
    out["linalg.spectral_norm_ms"] = median_time(lambda: linalg.spectral_norm(mats), 5) * 1e3
    out["linalg.eigvalsh_ref_ms"] = median_time(
        lambda: np.abs(np.linalg.eigvalsh(mats)).max(axis=-1), 5
    ) * 1e3
    out["quantum.identity_scan_s"] = median_time(
        lambda: quantum.identity_residual_scan(20 if smoke else 1000, seed), 1
    )
    calls = 10_000
    out["quantum.expectation_us"] = median_time(
        lambda: [quantum.singlet_expectation(a, b) for _ in range(calls)], 5
    ) / calls * 1e6

    model = lhv.DeterministicSignModel()
    mc_n = 10_000 if smoke else 100_000
    out["lhv.wigner_mc_ms"] = median_time(
        lambda: lhv.wigner_inequality_check(
            model, a, Axis(2.0), b, mode="mc", n=mc_n, rng=rng.substream(seed, 5)
        ),
        reps,
    ) * 1e3
    grid = [Axis(i * math.pi / 4.0) for i in range(8)]
    out["lhv.bell_check_s"] = median_time(
        lambda: lhv.check_bell_theorem(model, grid, mc_n, rng.substream(seed, 6)), 1
    )
    out["oracles.quadrature_ms"] = median_time(
        lambda: (
            oracles.hemi_average_quadrature(math.pi / 3.0),
            oracles.half_circle_overlap_quadrature(0.0, math.pi / 2.0, 200_000 if smoke else 2_000_000),
        ),
        3,
    ) * 1e3
    return out


def serve() -> None:
    channel = sys.stdout
    run_id = f"{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id)
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "cli":
            reply = run_cli(req["argv"], tracer if req.get("trace") else None)
        elif op == "probes":
            reply = {"probes": run_probes(req["seed"], req["smoke"])}
        elif op == "finish":
            if req.get("trace_path"):
                tracer.write(req["trace_path"])
            reply = {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "spans": len(tracer.spans),
            }
        else:
            raise ValueError(f"unknown op {op!r}")
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
        if op == "finish":
            return


def main() -> int:
    where = os.path.dirname(os.path.abspath(bellfoundry.__file__))
    if where != os.path.join(SRC, "bellfoundry"):
        print(f"bellfoundry imported from {where}, not from {SRC}", file=sys.stderr)
        return 2
    channel = sys.stdout
    channel.write(
        json.dumps(
            {
                "numpy": np.__version__,
                "bellfoundry": getattr(bellfoundry, "__version__", "unknown"),
                "batch_size": getattr(rng, "BATCH_SIZE", None),
            }
        )
        + "\n"
    )
    channel.flush()
    serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
