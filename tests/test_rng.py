import numpy as np
import pytest

from bellfoundry.rng import BatchStream, check_key, skip, substream

LAST_BATCH = (1 << 32) - 1


def _draws(rng):
    return (
        rng.standard_normal((5, 3)),
        rng.random(7),
        rng.uniform(0.0, 2.0, size=4),
        rng.multinomial(1000, [0.1, 0.2, 0.3, 0.4]),
    )


class TestBatchStreams:
    @pytest.mark.parametrize("batch", [0, 1, LAST_BATCH])
    def test_draws_equal_substream(self, batch):
        rng = BatchStream(7).at(3, batch)
        for ours, theirs in zip(_draws(rng), _draws(substream(7, 3, batch))):
            assert np.array_equal(ours, theirs)

    def test_rekeying_discards_buffered_state(self):
        # 32-bit draws leave half a word buffered; the next key must not see it
        keyed = BatchStream(11)
        for stream, k in [(2, 0), (2, 1), (5, 1), (2, 0)]:
            rng = keyed.at(stream, k)
            for ours, theirs in zip(_draws(rng), _draws(substream(11, stream, k))):
                assert np.array_equal(ours, theirs)
            rng.integers(0, 1 << 20, size=3, dtype=np.int32)

    def test_largest_seed_and_stream(self):
        seed, stream = (1 << 64) - 1, (1 << 32) - 1
        check_key(seed, stream, 0, LAST_BATCH)
        rng = BatchStream(seed).at(stream, 5)
        assert np.array_equal(rng.random(9), substream(seed, stream, 5).random(9))

    @pytest.mark.parametrize(
        "seed, stream, batches",
        [
            (-1, 0, range(1)),
            (1 << 64, 0, range(1)),
            (0, -1, range(1)),
            (0, 1 << 32, range(1)),
            (0, 0, range(-1, 1)),
            (0, 0, range(LAST_BATCH, LAST_BATCH + 2)),
            # a non-integer would be truncated into another key
            (1.5, 0, range(1)),
            (np.float64(3.0), 0, range(1)),
            (True, 0, range(1)),
            ("1", 0, range(1)),
            (0, 1.5, range(1)),
            (0, False, range(1)),
            (0, "0", range(1)),
            (0, 0, [1.5]),
            (0, 0, [True]),
            (0, 0, ["0"]),
        ],
    )
    def test_rejects_out_of_range_key(self, seed, stream, batches):
        # check_key rejects a range by its extremes, before any batch is drawn;
        # the stream itself rejects a bad seed, and any key past 32 bits that
        # would otherwise alias the next stream's
        with pytest.raises(ValueError):
            check_key(seed, stream, batches[0], batches[-1])
        with pytest.raises(ValueError):
            keyed = BatchStream(seed)
            for k in batches:
                keyed.at(stream, k)
        with pytest.raises(ValueError):
            for k in batches:
                substream(seed, stream, k)

    def test_numpy_integer_keys_draw_as_python_ints(self):
        # a 32-bit numpy stream shifted in its own width would alias stream 0
        seed, stream, batch = np.uint64(7), np.uint32(5), np.int32(3)
        expected = substream(7, 5, 3).random(9)
        assert np.array_equal(substream(seed, stream, batch).random(9), expected)
        assert np.array_equal(BatchStream(seed).at(stream, batch).random(9), expected)


class TestSubstream:
    def test_rejects_out_of_range_batch(self):
        with pytest.raises(ValueError):
            substream(0, 0, 1 << 32)
        with pytest.raises(ValueError):
            substream(0, 0, -1)


SKIPS = [0, 1, 2, 3, 4, 5, 8, 99_999, 100_000, 100_001]


def _philox_at(buffer_pos, has_uint32):
    """A Philox generator two blocks in, at a chosen buffer offset and spare 32-bit word."""
    rng = substream(13, 2, 5)
    rng.random(8)
    state = rng.bit_generator.state
    state["buffer_pos"] = buffer_pos
    state["has_uint32"], state["uinteger"] = has_uint32, 0xDEADBEEF
    rng.bit_generator.state = state
    return rng


class TestSkip:
    @pytest.mark.parametrize("has_uint32", [0, 1])
    @pytest.mark.parametrize("buffer_pos", [0, 1, 2, 3, 4])
    def test_philox_lands_where_drawing_does(self, buffer_pos, has_uint32):
        for k in SKIPS:
            skipped, drawn = _philox_at(buffer_pos, has_uint32), _philox_at(buffer_pos, has_uint32)
            skip(skipped, k)
            drawn.random(k)
            ours, theirs = skipped.bit_generator.state, drawn.bit_generator.state
            assert np.array_equal(ours["state"]["counter"], theirs["state"]["counter"]), k
            for field in ("buffer_pos", "has_uint32", "uinteger"):
                assert ours[field] == theirs[field], (k, field)
            assert np.array_equal(skipped.random(9), drawn.random(9)), k

    def test_other_bit_generators_draw_and_discard(self):
        for k in SKIPS:
            skipped, drawn = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
            for rng in (skipped, drawn):
                rng.integers(0, 10, dtype=np.uint32)  # leaves a spare 32-bit word
            skip(skipped, k)
            drawn.random(k)
            ours, theirs = skipped.bit_generator.state, drawn.bit_generator.state
            assert ours["state"] == theirs["state"], k
            for field in ("has_uint32", "uinteger"):
                assert ours[field] == theirs[field], (k, field)
            assert np.array_equal(skipped.random(9), drawn.random(9)), k

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="negative"):
            skip(substream(1), -1)
