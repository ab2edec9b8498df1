import numpy as np
import pytest

from bellfoundry.rng import batch_streams, substream

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
        [(k, rng)] = list(batch_streams(7, 3, range(batch, batch + 1)))
        assert k == batch
        for ours, theirs in zip(_draws(rng), _draws(substream(7, 3, batch))):
            assert np.array_equal(ours, theirs)

    def test_rekeying_discards_buffered_state(self):
        # 32-bit draws leave half a word buffered; the next batch must not see it
        seen = []
        for k, rng in batch_streams(11, 2, range(4)):
            seen.append(k)
            for ours, theirs in zip(_draws(rng), _draws(substream(11, 2, k))):
                assert np.array_equal(ours, theirs)
            rng.integers(0, 1 << 20, size=3, dtype=np.int32)
        assert seen == [0, 1, 2, 3]

    def test_largest_seed_and_stream(self):
        seed, stream = (1 << 64) - 1, (1 << 32) - 1
        [(_, rng)] = list(batch_streams(seed, stream, range(5, 6)))
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
        ],
    )
    def test_rejects_out_of_range_key(self, seed, stream, batches):
        # rejected at the call, before any batch is drawn
        with pytest.raises(ValueError):
            batch_streams(seed, stream, batches)

    def test_empty_range_yields_nothing(self):
        assert list(batch_streams(1, 0, range(0))) == []


class TestSubstream:
    def test_rejects_out_of_range_batch(self):
        with pytest.raises(ValueError):
            substream(0, 0, 1 << 32)
        with pytest.raises(ValueError):
            substream(0, 0, -1)
