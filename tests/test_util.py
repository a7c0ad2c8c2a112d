import numpy as np
import pytest

from glyphcode import util
from glyphcode.errors import ContractViolation

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _draws(rng):
    return (
        rng.standard_normal((3, 2)),
        rng.normal(0.5, 0.01, 4),
        rng.random(3),
        rng.choice(12, 2, replace=False),
    )


def test_seeded_streams_match_default_rng():
    """Every stream starts where ``default_rng(seed)`` starts, bit for bit,
    for 1,000 random seeds over the full 64-bit range and the edges of each
    word, wherever a seed sits in its batch."""
    seeds = np.random.default_rng(28).integers(0, 2**64, size=1000, dtype=np.uint64, endpoint=False)
    seeds = seeds.tolist()
    batches = [EDGE_SEEDS + seeds, seeds[:500] + EDGE_SEEDS + seeds[500:], [2**64 - 1], [0, 0]]
    for batch in batches:
        count = 0
        for seed, stream in zip(batch, util.seeded_streams(batch)):
            want = np.random.default_rng(seed)
            for got, expect in zip(_draws(stream), _draws(want)):
                assert np.array_equal(got, expect), seed
            count += 1
        assert count == len(batch)
    assert list(util.seeded_streams([])) == []


def test_seeded_streams_take_numpy_integers():
    seeds = np.array([3, 2**40], dtype=np.uint64)
    for seed, stream in zip(seeds, util.seeded_streams(seeds)):
        assert np.array_equal(stream.random(4), np.random.default_rng(int(seed)).random(4))


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, True])
def test_seeded_streams_refuse_seeds_outside_uint64(bad):
    with pytest.raises(ContractViolation, match="seed"):
        next(util.seeded_streams([5, bad]))
