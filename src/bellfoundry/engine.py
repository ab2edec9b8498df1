"""Seeded, thread-count-independent experiment execution.

Trials are split into fixed-size batches; batch k of logical stream s
draws from the Philox substream keyed by (seed, s, k).  A run of many
pairs is one flat list of (pair, batch) tasks.  Each worker thread runs
one contiguous range of that list on its own re-keyed generator and sums
integer counts per pair; the merge is exact and associative, so the
final tallies are identical for any number of worker threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model1, model2
from .geometry import Axis, PairCounts
from .lhv import sample_sign_model_counts, sign_model_expectation_analytic
from .quantum import sample_singlet_counts, singlet_expectation
from .rng import BATCH_SIZE, BatchStream, check_key

CountSampler = Callable[[np.random.Generator, Axis, Axis, int], PairCounts]


@dataclass(frozen=True)
class ModelRunner:
    """A registered model: a vectorized trial sampler plus its closed form."""

    sample_counts: CountSampler
    #: reads (a, b) only through geometry.wrap_delta(a, b), so equal float differences
    #: b.theta - a.theta give equal values; scan calls it once per distinct difference
    analytic_expectation: Callable[[Axis, Axis], float]
    #: False if a batch runs mostly under the interpreter lock, where a second worker only contends
    threaded: bool = True


MODELS = {
    "quantum": ModelRunner(sample_singlet_counts, singlet_expectation, threaded=False),
    "sign-lhv": ModelRunner(sample_sign_model_counts, sign_model_expectation_analytic),
    # both EPR models reproduce the singlet law, so the quantum closed form applies
    "model1": ModelRunner(model1.sample_trial_counts, singlet_expectation),
    "model2": ModelRunner(model2.sample_trial_counts, singlet_expectation),
}


def run_counts(
    runner: ModelRunner, pairs: list[tuple[Axis, Axis, int]], trials: int, seed: int, threads: int = 1
) -> list[PairCounts]:
    """Accumulate trials for every (a, b, stream) pair over deterministic batches.

    Task t is batch t % n_batches of pair t // n_batches.  Every pair's key
    range is checked before any batch is drawn.  At most ``threads`` workers
    run, and only the calling thread if the runner is not ``threaded``.
    """
    for name, value in (("trials", trials), ("threads", threads)):
        if type(value) is not int or value < 1:  # type(), not isinstance: a bool is an int
            raise ValueError(f"{name} must be >= 1 and an int, got {value!r}")
    n_batches = -(-trials // BATCH_SIZE)
    check_key(seed, 0, n_batches - 1, *(stream for _, _, stream in pairs))
    n_tasks = n_batches * len(pairs)
    workers = max(1, min(threads if runner.threaded else 1, n_tasks))

    def run_range(w: int) -> list[tuple[int, int, int, int]]:
        keyed = BatchStream(seed)
        sums = [(0, 0, 0, 0)] * len(pairs)
        for task in range(w * n_tasks // workers, (w + 1) * n_tasks // workers):
            i, k = divmod(task, n_batches)
            a, b, stream = pairs[i]
            c = runner.sample_counts(keyed.at(stream, k), a, b, min(BATCH_SIZE, trials - k * BATCH_SIZE))
            s = sums[i]
            sums[i] = (s[0] + c.n_pp, s[1] + c.n_pm, s[2] + c.n_mp, s[3] + c.n_mm)
        return sums

    if workers == 1:
        results = [run_range(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_range, range(workers)))
    return [PairCounts(*map(sum, zip(*per_pair))) for per_pair in zip(*results)]


def run_pair_counts(
    runner: ModelRunner, a: Axis, b: Axis, trials: int, seed: int, stream: int, threads: int = 1
) -> PairCounts:
    """Accumulate trials for one axis pair over deterministic batches."""
    return run_counts(runner, [(a, b, stream)], trials, seed, threads)[0]


def chsh_std_error(std_errors) -> float:
    """Combined standard error of a CHSH sum of four estimates; NaN if any is NaN."""
    return math.sqrt(sum(s * s for s in std_errors))
