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


def check_key(seed: int, stream: int, *batches: int) -> None:
    """Raise ValueError unless seed fits in 64 bits and stream and every batch in 32."""
    # a float or a bool would be truncated into another key; numpy integers are fine
    for x in (seed, stream, *batches):
        if type(x) is bool or not isinstance(x, (int, np.integer)):
            raise ValueError(f"seed, stream and batch must be integers, not {x!r}")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= stream < 1 << 32 or not all(0 <= k < 1 << 32 for k in batches):
        raise ValueError("stream and batch must fit in 32 bits")


def substream(seed: int, stream: int = 0, batch: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, stream, batch)."""
    check_key(seed, stream, batch)
    key = np.array([seed, (int(stream) << 32) | int(batch)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def skip(generator: np.random.Generator, k: int) -> None:
    """Move ``generator`` past k doubles, leaving it where ``generator.random(k)`` would.

    A Philox generator jumps: ``random_raw`` empties the rest of its
    four-word buffer, ``advance`` passes the whole four-word blocks, and
    ``random_raw`` draws the tail.  ``advance`` resets the spare 32-bit
    word, so that is put back.  Any other bit generator draws and discards.
    """
    if k < 0:
        raise ValueError("cannot skip a negative number of draws")
    bit_generator = generator.bit_generator
    if not isinstance(bit_generator, np.random.Philox):
        generator.random(k)
        return
    state = bit_generator.state
    head = min(k, 4 - state["buffer_pos"])
    blocks, tail = divmod(k - head, 4)
    bit_generator.random_raw(head)
    if blocks:
        bit_generator.advance(blocks)
        moved = bit_generator.state
        moved["has_uint32"] = state["has_uint32"]
        moved["uinteger"] = state["uinteger"]
        bit_generator.state = moved
    bit_generator.random_raw(tail)


class BatchStream:
    """One Philox under one seed, re-keyed in place to draw as ``substream(seed, stream, k)``.

    ``at`` resets the key, the counter and the buffer, which skips the
    per-generator set-up cost of ``substream``.  The generator is reused:
    finish drawing from one ``at`` before the next.  Not for sharing
    between threads: each worker owns one.
    """

    def __init__(self, seed: int):
        check_key(seed, 0)
        self._seed = seed
        self._bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._generator = np.random.Generator(self._bit_generator)
        # a fresh generator's state (counter 0, empty buffer), read out as new arrays
        self._state = self._bit_generator.state
        self._key = self._state["state"]["key"]

    def at(self, stream: int, k: int) -> np.random.Generator:
        check_key(self._seed, stream, k)
        self._key[1] = (int(stream) << 32) | int(k)
        self._bit_generator.state = self._state
        return self._generator
