"""Small shared helpers: stable seeding, seeded generator streams and the
check that an argument is an integer."""

from __future__ import annotations

import hashlib
import operator
from typing import Iterable, Iterator

import numpy as np

from .errors import ContractViolation

__all__ = ["stable_seed", "as_integer"]


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed deterministically from arbitrary hashable parts.

    Independent of PYTHONHASHSEED; the same parts always give the same seed,
    so parallel trials can use per-trial derived seeds reproducibly.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def as_integer(value, name: str) -> int:
    """``value`` as an int when it is a Python or numpy integer and not a
    bool; anything else raises ContractViolation naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ContractViolation(f"{name} must be an integer, not {type(value).__name__}")


# numpy's SeedSequence (NEP 19) with its default pool of four uint32 words,
# and the PCG64 seeding of O'Neill's reference code.  The hash constants do
# not depend on the data, so each step's xor and multiply constants are
# precomputed as column vectors.
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i`` mod 2**32 for i in [0, count], as a read-only
    (count + 1, 1) uint32 column."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    column = np.array(values, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


# the pool hash runs 16 hashmix steps: 4 to fill the pool, then 3 per source
# word; generate_state(4, uint64) runs 8 steps of its own hash
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_OTHER_WORDS = tuple([d for d in range(4) if d != s] for s in range(4))


def _hashmix(words: np.ndarray, hash_at: np.ndarray, out: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix into ``out``, wrapping mod 2**32: row r of
    ``out`` xors ``words`` (row r, or the one row given) with
    ``hash_at[r]`` and multiplies by ``hash_at[r + 1]``."""
    np.bitwise_xor(words, hash_at[:-1], out=out)
    out *= hash_at[1:]
    out ^= out >> _XSHIFT
    return out


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """PCG64's 128-bit (state, inc) after ``default_rng(seed)``, per seed.

    Each seed below 2**64 is two little-endian uint32 entropy words; a
    SeedSequence pads shorter entropy with hashed zeros, which equals a
    zero high word, so every seed takes the same steps, column by column,
    on a (4, B) uint32 array.
    """
    words = np.zeros((4, len(seeds)), dtype=np.uint32)
    words[:2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    _hashmix(words, _POOL_HASH[0:5], out=words)
    # each source word mixes into the three others, in order, each step
    # with the next hash constants
    h = np.empty((3, len(seeds)), dtype=np.uint32)
    for src, others in enumerate(_OTHER_WORDS):
        _hashmix(words[src], _POOL_HASH[4 + 3 * src : 8 + 3 * src], out=h)
        h *= _MIX_MULT_R
        mixed = words[others]
        mixed *= _MIX_MULT_L
        mixed -= h
        mixed ^= mixed >> _XSHIFT
        words[others] = mixed
    # generate_state(4, uint64): eight uint32 outputs cycling over the pool,
    # paired little-endian into (seed_hi, seed_lo, inc_hi, inc_lo)
    state = np.tile(words, (2, 1))
    _hashmix(state, _STATE_HASH, out=state)
    hi_lo = np.ascontiguousarray(state.T).view("<u8").T.tolist()
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*hi_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128, inc))
    return out


def seeded_streams(seeds: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each seed in turn, a Generator in exactly the state that
    ``np.random.default_rng(seed)`` starts in, bit for bit.

    One PCG64 and one Generator serve the whole call: the yielded object is
    the same each time and is reset for the next seed when the iterator
    advances, so a caller finishes its draws before it asks for the next.
    The first seed seeds the PCG64 as ``default_rng`` does; the states of
    the others are derived together as array arithmetic and set in turn, in
    place of a SeedSequence and a PCG64 per seed.  Seeds that are not
    integers in [0, 2**64) raise ContractViolation when the first stream is
    asked for, before any draw.
    """
    checked = [as_integer(seed, "seed") for seed in seeds]
    if any(not 0 <= seed < 1 << 64 for seed in checked):
        raise ContractViolation("seed must be in [0, 2**64)")
    if not checked:
        return
    bit_generator = np.random.PCG64(checked[0])
    stream = np.random.Generator(bit_generator)
    yield stream
    if len(checked) == 1:
        return
    for state, inc in _pcg64_states(checked[1:]):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield stream
