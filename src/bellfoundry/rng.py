"""Reproducible parallel random streams.

The repo-wide generator is Philox4x64 as shipped in ``numpy.random``: a
counter-based 64-bit generator whose output is fixed by its 128-bit key,
so golden outputs are portable across platforms and independent of
scheduling.  A trial run is split into fixed-size batches; batch ``k`` of
logical stream ``stream`` under master seed ``seed`` draws from the key
``(seed, stream << 32 | k)``.  Batches can then execute on any number of
threads and their integer counts merge associatively.
"""

from __future__ import annotations

import numpy as np

#: Fixed batch size for parallel trial execution.
BATCH_SIZE = 1 << 16


def _check_key(seed: int, stream: int, *batches: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= stream < 1 << 32 or not all(0 <= k < 1 << 32 for k in batches):
        raise ValueError("stream and batch must fit in 32 bits")


def _key(seed: int, stream: int, batch: int) -> np.ndarray:
    return np.array([seed, (stream << 32) | batch], dtype=np.uint64)


def substream(seed: int, stream: int = 0, batch: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, stream, batch)."""
    _check_key(seed, stream, batch)
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, batch)))


def batch_streams(seed: int, stream: int, batches: range):
    """Yield (k, generator) for each batch k, drawing exactly as substream(seed, stream, k).

    One Philox is built up front and re-keyed in place for each batch
    (key, counter 0, empty buffer), which skips the per-generator set-up
    cost of ``substream``.  The generator is reused: finish drawing from
    it before advancing the iterator.
    """
    _check_key(seed, stream, *batches[:1], *batches[-1:])  # a range's extremes
    bit_generator = np.random.Philox(key=_key(seed, stream, 0))
    generator = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)  # the setter copies, so one array serves

    def streams():
        for k in batches:
            bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": zeros, "key": _key(seed, stream, k)},
                "buffer": zeros,
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield k, generator

    return streams()
