"""Seeded, thread-count-independent experiment execution.

Trials are split into fixed-size batches; batch k of logical stream s
draws from the Philox substream keyed by (seed, s, k).  Each worker
thread runs one contiguous range of batches on a re-keyed generator and
sums their integer counts; the merge is exact and associative, so the
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
from .rng import BATCH_SIZE, batch_streams

CountSampler = Callable[[np.random.Generator, Axis, Axis, int], PairCounts]


@dataclass(frozen=True)
class ModelRunner:
    """A registered model: a vectorized trial sampler plus its closed form."""

    sample_counts: CountSampler
    analytic_expectation: Callable[[Axis, Axis], float]


MODELS = {
    "quantum": ModelRunner(sample_singlet_counts, singlet_expectation),
    "sign-lhv": ModelRunner(sample_sign_model_counts, sign_model_expectation_analytic),
    # both EPR models reproduce the singlet law, so the quantum closed form applies
    "model1": ModelRunner(model1.sample_trial_counts, singlet_expectation),
    "model2": ModelRunner(model2.sample_trial_counts, singlet_expectation),
}


def run_pair_counts(
    runner: ModelRunner,
    a: Axis,
    b: Axis,
    trials: int,
    seed: int,
    stream: int,
    threads: int = 1,
) -> PairCounts:
    """Accumulate trials for one axis pair over deterministic batches."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    n_batches = -(-trials // BATCH_SIZE)
    workers = min(threads, n_batches)

    def run_range(batches: range) -> PairCounts:
        n_pp = n_pm = n_mp = n_mm = 0
        for k, rng in batch_streams(seed, stream, batches):
            size = min(BATCH_SIZE, trials - k * BATCH_SIZE)
            counts = runner.sample_counts(rng, a, b, size)
            n_pp += counts.n_pp
            n_pm += counts.n_pm
            n_mp += counts.n_mp
            n_mm += counts.n_mm
        return PairCounts(n_pp, n_pm, n_mp, n_mm)

    if workers == 1:
        return run_range(range(n_batches))
    # worker w runs batches [w * n_batches // workers, (w + 1) * n_batches // workers)
    bounds = [w * n_batches // workers for w in range(workers + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    total = PairCounts(0, 0, 0, 0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for counts in pool.map(run_range, ranges):
            total = total + counts
    return total


def chsh_std_error(std_errors) -> float:
    """Combined standard error of a CHSH sum of four estimates; NaN if any is NaN."""
    return math.sqrt(sum(s * s for s in std_errors))
