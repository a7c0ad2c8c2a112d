"""End-to-end message embedding and extraction over a columnar block layout.

A document's letters are partitioned left to right into blocks of n letters.
Each block gets pairwise-coprime moduli p_i <= s_i (s_i = the letter's glyph
count) chosen by depth-first search to maximize the product of the k smallest,
and carries floor(log2 M_t) message bits.  When no coprime assignment exists
the lowest-capacity letter is dropped from the block and the next letter is
pulled in; dropped and trailing letters carry the index-0 glyph and no
payload.  The block layout is a pure function of (text, codebook, n, k), so
the extractor recomputes it instead of transmitting it.  The Monte-Carlo
capacity estimate partitions its sampled letters with the same rule.

A document's letters are one record (:class:`LetterSequence`) from one pass
over the text's UTF-32 code points (:func:`letter_sequence`): the letters
joined into a string, each letter's glyph count, and its position and
character id as integer arrays.  Embedding, extraction, signing and the
channel read that record, and a key maps its letters by table gathers on
the character ids.

The partition is held as arrays (:class:`_Layout`): a (B, n) array of each
block's letters, a moduli-set id per block, the distinct sets and the few
skipped letters.  :func:`_build_layout` makes it in aligned-run passes over
one iterator of the letters' glyph counts: the windows that start n letters
apart come as tuples from ``zip`` and map to set ids through one per-call
dict keyed by capacity tuple, which searches a tuple when it is first met,
so that the moduli search sees each distinct tuple once.  A run stops at
the first window with no set, before any later window is read, and only
that window expands letter by letter.  A document's callers read the layout
through :func:`_text_layout`, a one-entry memo keyed by the glyph counts,
n and k, so embed, extract, signing, verification and the channel build a
document's layout once between them; layouts are read-only, since one is
shared by those calls.  Embedding chunks the framed message
and encodes every block in array passes.  Extraction decodes every block
with no misread letter in one pass: the CRT's Garner lifting
(:func:`crc._lift`) runs on int64 columns of every block at once, and keeps
m where every residue is in range and m < M; only the other blocks go, in
block order, to the Hamming decoder and its likelihood tie-break.  A set
with P * max(p) >= 2^62 decodes block by block, and payloads wider than 62
bits are Python integers; residues and glyph indices are int64 throughout.
Extraction's report (:class:`DecodeReport`) is kept as those columns: the
payloads and the outcomes of the blocks off the exact path, so an exact
block's outcome is built only when a caller reads it.

Message bits travel as one uint8 array of 0s and 1s from the public bit
string to the residues and back.  :func:`_digits` checks a str once and
converts it, :func:`_text` builds the returned one; framing writes and
reads the 32-bit length prefix with ``np.unpackbits``/``np.packbits``, and
:func:`_chunk` and :func:`_bits` cut the array into payloads and join them
back by each bit's place in its block.  Received glyph indices go through
one typed conversion to int64; a value that is not an integer is refused
before any block is decoded.

:func:`partition_blocks` gives the layout as a per-block view, one
:class:`Block` per block, and :func:`chunk_message` cuts a framed message
over that view; :func:`frame_message`, :func:`unframe_message` and
:func:`chunk_message` are the str forms of the bit codec.  The package's
own paths read the arrays.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, islice, repeat, starmap, takewhile
from operator import index, is_not
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .codebook import Codebook
from .crc import DecodeOutcome, ModuliSet, _lift, _resolve_tie, hamming_decode
from .errors import (
    CapacityExceededError,
    ContractViolation,
    CorruptFrameError,
    DocumentTooSmallError,
    PartialDecodeError,
)
from .util import as_integer

__all__ = [
    "LetterSequence",
    "Block",
    "DecodeReport",
    "EncodedDocument",
    "letter_sequence",
    "choose_moduli",
    "partition_blocks",
    "frame_message",
    "unframe_message",
    "chunk_message",
    "embed",
    "extract",
    "capacity_report",
    "baseline_block_bits",
]

LENGTH_PREFIX_BITS = 32
_INT64_BITS = 62  # payload widths and lifting steps below 2^62 stay in int64


@dataclass(frozen=True, eq=False)
class LetterSequence:
    """A text's codebook letters, in order, from one pass over its code points.

    Letter i is the text's character ``positions[i]``, which is the
    codebook's one-character key ``chars[ids[i]]`` and has ``capacities[i]``
    glyphs; ``letters`` is the letters joined into one string.
    """

    letters: str
    capacities: tuple[int, ...]
    positions: np.ndarray  # original document indices
    chars: tuple[str, ...]  # the codebook's one-character keys, by code point
    ids: np.ndarray


@dataclass(frozen=True)
class Block:
    """One block of :func:`partition_blocks`' per-block view of the layout."""

    member_indices: tuple[int, ...]  # indices into the letter sequence
    skipped_indices: tuple[int, ...]
    moduli: ModuliSet

    @property
    def bit_width(self) -> int:
        return self.moduli.payload_bound.bit_length() - 1  # floor(log2 M_t)


@dataclass(frozen=True)
class EncodedDocument:
    text: str
    glyph_indices: tuple[int, ...]  # one per codebook-covered letter, in order
    codebook_id: str


def letter_sequence(text: str, codebook: Codebook) -> LetterSequence:
    """One pass over the text's UTF-32 code points: a gather from a table,
    indexed by code point up to one past the codebook's largest
    one-character key, that holds each key's index into ``chars`` and
    len(chars) elsewhere.  Lone surrogates are code points of their own, and
    a longer key matches no letter.  The table is built per call; a key past
    the Basic Multilingual Plane makes it up to 4.4 MB.  A text that is not
    a str is refused."""
    if not isinstance(text, str):
        raise ContractViolation(f"text must be a str, not {type(text).__name__}")
    entries = codebook.entries
    chars = tuple(sorted(ch for ch in entries if len(ch) == 1))
    points = [ord(ch) for ch in chars]
    table = np.full(max(points, default=0) + 2, len(chars), dtype=np.int32)
    table[points] = np.arange(len(chars))
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    at = table.take(codes, mode="clip")  # larger code points read the last entry
    positions = np.flatnonzero(at < len(chars))
    ids = at[positions]
    caps = np.array([entries[ch].capacity for ch in chars], dtype=np.int64)
    letters = codes[positions].tobytes().decode("utf-32-le", "surrogatepass")
    return LetterSequence(letters, tuple(caps[ids].tolist()), positions, chars, ids)


def _kmin_product(values: Sequence[int], k: int) -> int:
    return math.prod(sorted(values)[:k])


def choose_moduli(capacities: Sequence[int], k: int) -> Optional[ModuliSet]:
    """Best pairwise-coprime assignment p_i <= s_i by pruned depth-first search.

    Maximizes the product of the k smallest p_i; candidates are explored in
    descending value order so the first assignment reaching the optimum is the
    lexicographically largest, which is the tie-break.  A partial assignment
    is bounded by giving each later position the largest value coprime to the
    values chosen so far; a subtree where some later position has none left
    is skipped.  Returns None when no assignment with every p_i >= 2 exists.
    A capacity or k that is not an integer is refused.
    """
    caps = [as_integer(c, "capacities") for c in capacities]
    k = as_integer(k, "k")
    n = len(caps)
    if n < 2 or not (1 <= k < n):
        raise ContractViolation("need n >= 2 and 1 <= k < n")
    if any(c < 1 for c in caps):
        raise ContractViolation("capacities must be >= 1")
    best_obj = 0
    best: Optional[tuple[int, ...]] = None
    chosen: list[int] = []

    def dfs(i: int, used: int) -> None:
        """Extend ``chosen``, whose values multiply to ``used``."""
        nonlocal best_obj, best
        if i == n:  # reached only when it beats best_obj
            best_obj = _kmin_product(chosen, k)
            best = tuple(chosen)
            return
        rest = []  # the largest value each later position could still take
        for c in caps[i + 1 :]:
            while math.gcd(c, used) != 1:
                c -= 1
            if c < 2:
                return
            rest.append(c)
        for v in range(caps[i], 1, -1):
            if math.gcd(v, used) != 1:
                continue
            # optimistic bound: it cannot grow as v falls, so no smaller v can
            # beat best_obj either
            if _kmin_product(chosen + [v] + rest, k) <= best_obj:
                break
            chosen.append(v)
            dfs(i + 1, used * v)
            chosen.pop()

    dfs(0, 1)
    if best is None:
        return None
    return ModuliSet(best, k)


# holds every tuple of a 5-level codebook at n=5 (5**5 = 3125); wider fonts
# mostly meet new tuples, and the search of one can take seconds where an
# 8-letter window mixes wide and narrow capacities
@lru_cache(maxsize=4096)
def _choose_moduli_cached(capacities: tuple[int, ...], k: int) -> Optional[ModuliSet]:
    return choose_moduli(capacities, k)


def _prime_count(limit: int) -> int:
    """Number of primes <= limit (a sieve; capacities are glyph counts)."""
    sieve = bytearray([0, 0]) + bytearray([1]) * max(limit - 1, 0)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return sum(sieve)


@dataclass(frozen=True, eq=False)
class _Layout:
    """A block partition as arrays.

    Block t holds the letters ``members[t]`` (ascending) under the moduli set
    ``sets[set_ids[t]]``, and carries ``widths[t]`` bits.  ``sets`` holds each
    set once, by identity, in first-use order, each the very object the
    moduli search's cache returned; ``moduli`` is their (S, n) array.
    ``skipped`` lists the letters a block dropped, for the blocks that
    dropped any.  A layout is read-only, arrays and mapping both, since the
    layout memo (:func:`_text_layout`) hands one layout to many calls.
    """

    members: np.ndarray
    set_ids: np.ndarray
    sets: tuple[ModuliSet, ...]
    moduli: np.ndarray
    widths: np.ndarray
    skipped: Mapping[int, tuple[int, ...]]

    def blocks(self) -> list[Block]:
        sets, skipped = self.sets, self.skipped
        return [
            Block(tuple(row), skipped.get(t, ()), sets[s])
            for t, (row, s) in enumerate(zip(self.members.tolist(), self.set_ids.tolist()))
        ]


def _payload_dtype(widths: np.ndarray):
    """int64 while every payload fits it, else Python integers."""
    return np.int64 if widths.max(initial=0) <= _INT64_BITS else object


class _SetIndex(dict):
    """Capacity tuple -> the index into ``sets`` of its moduli set, or None
    where it has none.  A tuple is searched when it is first looked up."""

    __slots__ = ("k", "sets")

    def __init__(self, k: int):
        super().__init__()
        self.k, self.sets = k, []

    def __missing__(self, window: tuple[int, ...]) -> Optional[int]:
        moduli = _choose_moduli_cached(window, self.k)
        if moduli is None:
            self[window] = None
            return None
        s = self[window] = len(self.sets)
        self.sets.append(moduli)
        return s


_HAS_SET = partial(is_not, None)  # a set id, not the None of a window with no set


def _check_sizes(n, k) -> tuple[int, int]:
    """The block size n and payload size k as ints, refused unless both are
    integers with n >= 2 and 1 <= k < n."""
    n, k = as_integer(n, "n"), as_integer(k, "k")
    if n < 2 or not 1 <= k < n:
        raise ContractViolation("need n >= 2 and 1 <= k < n")
    return n, k


def _build_layout(
    caps: Sequence[int], n: int, k: int, limit: Optional[int] = None
) -> _Layout:
    """Greedy left-to-right block partition with the capacity-expansion rule.

    Takes blocks over indices into ``caps`` and stops once fewer than n
    letters remain, also when that happens while a block is still expanding,
    or once ``limit`` blocks are taken; the remainder is uncoded.  The runs
    and the expansions take letters in order from one shared iterator.
    Each aligned run is one lazy pass: the windows ``cursor, cursor + n, ...`` come as tuples from
    ``zip`` and map to set ids through a per-call dict keyed by capacity
    tuple, which searches a tuple the first time it is looked up, so the
    moduli search sees each distinct tuple once per call, in the order the
    letters meet them.  The run ends at the first window that has no set,
    before any later window is built.  That window drops its (first)
    lowest-capacity letter and pulls in the next one until it can form,
    looking each tried window up the same way; the next run starts after
    it.  Takes nothing at once when no window could ever form a block: n
    pairwise-coprime values >= 2 have n distinct prime factors, so they need
    n primes <= the largest capacity.  An n, k or limit that is not an
    integer is refused.  This is the one partition rule and keeps no memo:
    a document's callers reach it through :func:`_text_layout`, which
    builds each document's layout once.
    """
    n, k = _check_sizes(n, k)
    total = len(caps)
    limit = total if limit is None else as_integer(limit, "limit")
    # the first window's largest capacity bounds the largest from below and
    # mostly settles the check without scanning every letter
    if total >= n and limit > 0:
        if n > _prime_count(max(caps[:n])) and n > _prime_count(max(caps)):
            total = 0
    found = _SetIndex(k)
    letters = iter(caps)  # at the cursor
    columns = [letters] * n  # zip(*columns) reads the windows from the cursor
    starts: list[int] = []  # each block's first letter
    set_ids: list[int] = []
    expanded: dict[int, list[int]] = {}  # members of each block that skipped
    skipped: dict[int, tuple[int, ...]] = {}
    cursor = 0  # the next letter to take
    while cursor + n <= total and len(set_ids) < limit:
        before = len(set_ids)
        run = islice(zip(*columns), limit - before)
        set_ids += takewhile(_HAS_SET, map(found.__getitem__, run))
        end = cursor + (len(set_ids) - before) * n
        starts += range(cursor, end, n)
        cursor = end
        if cursor + n > total or len(set_ids) == limit:
            break
        # the window at the cursor, already read, has no set: drop its
        # (first) lowest-capacity letter and pull in the next one
        start, cursor = cursor, cursor + n
        window, row = list(range(start, cursor)), list(caps[start:cursor])
        dropped: list[int] = []
        s = None
        while s is None and cursor < total:
            drop = row.index(min(row))
            dropped.append(window.pop(drop))
            del row[drop]
            window.append(cursor)
            row.append(next(letters))
            cursor += 1
            s = found[tuple(row)]
        if s is None:
            break
        expanded[len(set_ids)] = window
        skipped[len(set_ids)] = tuple(dropped)
        starts.append(start)
        set_ids.append(s)
    sets = found.sets
    members = np.array(starts, dtype=np.intp)[:, None] + np.arange(n)
    if expanded:
        members[list(expanded)] = list(expanded.values())
    ids = np.array(set_ids, dtype=np.intp)
    set_widths = np.fromiter(
        (m.payload_bound.bit_length() - 1 for m in sets), dtype=np.int64, count=len(sets)
    )
    moduli = np.fromiter(
        chain.from_iterable(m.p for m in sets), dtype=np.int64, count=len(sets) * n
    ).reshape(len(sets), n)
    widths = set_widths[ids]
    for values in (members, ids, moduli, widths):
        values.setflags(write=False)
    return _Layout(
        members=members,
        set_ids=ids,
        sets=tuple(sets),
        moduli=moduli,
        widths=widths,
        skipped=MappingProxyType(skipped),
    )


def _text_layout(caps: Sequence[int], n, k) -> _Layout:
    """The layout of a document's letter capacities, built once for the
    calls that read one document: embed, extract, :func:`partition_blocks`,
    the capacity of a text, signing, verification and the channel.  n and k
    are checked before the memo is read; the memo keeps only the most recent
    capacity sequence, so it holds one layout whatever the input."""
    return _layout_memo(tuple(caps), *_check_sizes(n, k))


@lru_cache(maxsize=1)
def _layout_memo(caps: tuple[int, ...], n: int, k: int) -> _Layout:
    return _build_layout(caps, n, k)


def partition_blocks(seq: LetterSequence, n: int = 5, k: int = 3) -> list[Block]:
    """The block partition of a document's letter sequence (see
    :func:`_build_layout`) as a per-block view, one :class:`Block` each."""
    if not seq.letters:
        raise ContractViolation("letter sequence is empty")
    return _text_layout(seq.capacities, n, k).blocks()


def _digits(bits: str, name: str = "message") -> np.ndarray:
    """A bit string as a uint8 array of 0s and 1s, checked in one pass;
    anything but a str of ASCII '0'/'1' is refused, naming ``name``."""
    try:
        digits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        if not (digits > 1).any():
            return digits
    except (AttributeError, UnicodeEncodeError):  # not a str, or not ASCII
        pass
    raise ContractViolation(f"{name} must be a bit string of '0'/'1'")


def _text(digits: np.ndarray) -> str:
    """A uint8 array of 0s and 1s as a bit string."""
    return (digits + ord("0")).tobytes().decode("ascii")


def _frame(digits: np.ndarray, total_bits: int) -> np.ndarray:
    """Length-prefix framing of message bits: the 32-bit big-endian bit
    count, the bits, and zeros out to ``total_bits``."""
    if len(digits) >= 1 << LENGTH_PREFIX_BITS:
        raise CapacityExceededError("message too long for the length prefix")
    end = LENGTH_PREFIX_BITS + len(digits)
    if end > total_bits:
        raise CapacityExceededError(
            f"framed message needs {end} bits, document holds {total_bits}"
        )
    framed = np.zeros(total_bits, dtype=np.uint8)
    prefix = np.array([len(digits)], dtype=">u4").view(np.uint8)
    framed[:LENGTH_PREFIX_BITS] = np.unpackbits(prefix)
    framed[LENGTH_PREFIX_BITS:end] = digits
    return framed


def _unframe(digits: np.ndarray) -> np.ndarray:
    """The message bits of a framed bit array, by its length prefix."""
    if len(digits) < LENGTH_PREFIX_BITS:
        raise CorruptFrameError("fewer bits than the length prefix")
    length = int(np.packbits(digits[:LENGTH_PREFIX_BITS]).view(">u4")[0])
    if length > len(digits) - LENGTH_PREFIX_BITS:
        raise CorruptFrameError(
            f"length prefix {length} exceeds available {len(digits) - LENGTH_PREFIX_BITS} bits"
        )
    return digits[LENGTH_PREFIX_BITS : LENGTH_PREFIX_BITS + length]


def frame_message(bits: str, total_bits: int) -> str:
    """Length-prefix framing: 32-bit big-endian payload bit count, payload,
    zero padding out to the document's full coded width."""
    return _text(_frame(_digits(bits), as_integer(total_bits, "total_bits")))


def unframe_message(bits: str) -> str:
    """The payload of a framed bit string, by its length prefix."""
    return _text(_unframe(_digits(bits)))


def _places(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each block's first bit, and each bit's big-endian shift within its
    block, of the payloads' dtype (see :func:`_payload_dtype`)."""
    ends = np.cumsum(widths)
    ends_of_bits = np.repeat(ends, widths)
    shifts = ends_of_bits - 1 - np.arange(len(ends_of_bits))
    return ends - widths, shifts.astype(_payload_dtype(widths), copy=False)


def _chunk(digits: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Cut widths[t] bits per block, big-endian, from ``digits``, which
    holds exactly ``widths.sum()`` 0s and 1s."""
    starts, shifts = _places(widths)
    return np.add.reduceat(digits.astype(shifts.dtype) << shifts, starts)


def _bits(payloads: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Each block's payload as its low widths[t] bits, big-endian, joined
    into one uint8 array."""
    shifts = _places(widths)[1]
    return ((np.repeat(payloads, widths) >> shifts) & 1).astype(np.uint8)


def chunk_message(framed: str, blocks: Sequence[Block]) -> list[int]:
    """Cut bit_width(t) bits per block, big-endian: :func:`_chunk` over the
    per-block view; bits past the end of ``framed`` read 0."""
    if not isinstance(framed, str):
        raise ContractViolation("framed message must be a bit string of '0'/'1'")
    widths = np.array([b.bit_width for b in blocks], dtype=np.int64)
    digits = np.zeros(int(widths.sum()), dtype=np.uint8)
    if len(framed) > len(digits):
        raise ContractViolation("framed message exceeds total block width")
    digits[: len(framed)] = _digits(framed, "framed message")
    return _chunk(digits, widths).tolist()


def _check_text(text: str, codebook: Codebook) -> LetterSequence:
    seq = letter_sequence(text, codebook)
    if not seq.letters:
        raise DocumentTooSmallError("document contains no codebook letters")
    return seq


def _encode(
    seq: LetterSequence,
    layout: _Layout,
    payloads: np.ndarray,
    codebook: Codebook,
    key=None,
) -> tuple[int, ...]:
    """Glyph index per letter: each block's payload as its residues, 0 for
    uncoded letters, then mapped through the key, which must fit the
    codebook.  Residues are below their moduli, so int64 holds them also
    where the payloads are Python integers."""
    indices = np.zeros(len(seq.letters), dtype=np.int64)
    indices[layout.members] = payloads[:, None] % layout.moduli[layout.set_ids]
    if key is not None:
        indices = key.forward_ids(seq.chars, seq.ids, indices, codebook)
    return tuple(indices.tolist())


# a letter that fails its block: past the end, or a glyph index the key
# cannot map, which the key's inverse_ids marks -1
_REFUSED = -1
_MISREAD = -2  # a received value that no residue equals


def _received(values: Sequence[int], count: int) -> np.ndarray:
    """``values`` over ``count`` letters as int64.  A negative value and one
    int64 cannot hold read _MISREAD, and a None and a letter past the end of
    ``values`` read _REFUSED.  Any other value that is not an integer (as
    ``operator.index`` reads one) raises ContractViolation.  The values go
    through one typed conversion; only a stream that it refuses is read
    value by value."""
    vals = np.full(count, _REFUSED, dtype=np.int64)
    try:
        # a tuple, so that array() never reads a bytes-like stream as raw memory
        got = np.frombuffer(array("q", tuple(values)), dtype=np.int64)
        vals[: len(values)] = np.where(got < 0, _MISREAD, got)
    except (OverflowError, TypeError):  # a None, a value past int64 or no integer
        vals[: len(values)] = [_received_value(i, v) for i, v in enumerate(values)]
    return vals


def _received_value(i: int, value) -> int:
    """Letter i's received value, read as :func:`_received` reads it."""
    if value is None:
        return _REFUSED
    try:
        value = index(value)
    except TypeError:
        raise ContractViolation(
            f"glyph index {i} must be an integer, not {type(value).__name__}"
        ) from None
    return value if 0 <= value < 1 << _INT64_BITS else _MISREAD


def _garner(layout: _Layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct set: its moduli, Garner inverses and M where the set
    ``lifts_in_int64`` (out-of-range residues are zeroed before the lift),
    else moduli 1 and M = 0, so its blocks decode one by one."""
    sets = layout.sets
    M = np.array([s.payload_bound if s.lifts_in_int64 else 0 for s in sets], dtype=np.int64)
    inverses = np.array([s.inverses for s in sets], dtype=np.int64).reshape(len(sets), -1)
    return np.where(M[:, None] > 0, layout.moduli, 1), inverses, M


def _uniform_row(capacity: int) -> np.ndarray:
    return np.full(capacity, 1.0 / capacity)


def _decode(
    capacities: Sequence[int],
    layout: _Layout,
    received: np.ndarray,
    row: Optional[Callable[[int], np.ndarray]] = None,
    ends: Optional[Sequence[int]] = None,
) -> tuple[np.ndarray, dict[int, DecodeOutcome], list[Optional[int]]]:
    """Decode every block's payload.

    ``received`` gives each letter's received integer as :func:`_received`
    makes it, and ``row(i)`` letter i's likelihood row; rows are uniform
    over ``capacities[i]`` glyphs when ``row`` is None.  Every block whose
    residues are all in range and reconstruct below M takes the exact path
    in one pass.  The others go, in block order, to :func:`hamming_decode`,
    and rows are built only for those whose Hamming decode ties.  Blocks
    decode in groups that end before each of ``ends`` (ascending, the last
    the block count; one group by default).  A block that holds a _REFUSED
    letter or stays ambiguous fails its group, whose later blocks are then
    not decoded.

    Returns the payloads (0 where none was decoded), the outcome of each
    block off the exact path, and each group's first failed block or None.
    """
    ids = layout.set_ids
    r = received[layout.members]
    p, inverses, M = (a[ids] for a in _garner(layout))
    live = ((r >= 0) & (r < p)).all(axis=1)
    m = _lift(np.where(live[:, None], r, 0).T, p.T, range(p.shape[1]), inverses.T)[0]
    exact = live & (m < M)
    payloads = np.where(exact, m, 0).astype(_payload_dtype(layout.widths))

    slow: dict[int, DecodeOutcome] = {}
    ends = [len(ids)] if ends is None else ends
    failed: list[Optional[int]] = [None] * len(ends)
    group = 0
    pending = np.flatnonzero(~exact)
    for t, vector, s in zip(pending.tolist(), r[pending].tolist(), ids[pending].tolist()):
        while t >= ends[group]:
            group += 1
        if failed[group] is not None:
            continue
        if _REFUSED in vector:
            failed[group] = t
            continue
        moduli = layout.sets[s]
        outcome = hamming_decode(vector, moduli)
        if outcome.status == "ambiguous-fail":
            g = [
                row(i) if row is not None else _uniform_row(capacities[i])
                for i in layout.members[t].tolist()
            ]
            outcome = _resolve_tie(outcome, vector, moduli, g)
        slow[t] = outcome
        if outcome.m is None:
            failed[group] = t
            continue
        payloads[t] = outcome.m
    return payloads, slow, failed


class DecodeReport(Sequence):
    """Extract's decode report: one :class:`DecodeOutcome` per block, in
    block order, as a read-only sequence over two columns.

    It holds the decoded payloads as an array and the outcomes of the blocks
    off the exact path by block index.  An exact block's outcome,
    ``DecodeOutcome("exact", m, 0, 1, (m,))`` with m a Python int, is built
    only when that block is read.  Indexing and slicing read as a list's
    do, a report equals any sequence of the same outcomes, and its repr is
    the list's.
    """

    __slots__ = ("_payloads", "_off_exact")

    def __init__(self, payloads: np.ndarray, off_exact: dict[int, DecodeOutcome]):
        self._payloads = payloads
        self._off_exact = off_exact

    def _outcome(self, t: int, m: int) -> DecodeOutcome:
        """Block t's outcome, where m is its payload as a Python int."""
        outcome = self._off_exact.get(t)
        return DecodeOutcome("exact", m, 0, 1, (m,)) if outcome is None else outcome

    def __len__(self) -> int:
        return len(self._payloads)

    def __getitem__(self, index):
        at = range(len(self._payloads))[index]  # negative indices and slices as a list's
        if isinstance(at, range):
            return list(map(self._outcome, at, self._payloads[index].tolist()))
        return self._outcome(at, int(self._payloads[at]))

    def __iter__(self):
        ms = self._payloads.tolist()
        # every block's exact outcome, built as it is read (zip(ms) gives the
        # one-element candidate tuples); a block off the exact path reads its own
        exact = starmap(DecodeOutcome, zip(repeat("exact"), ms, repeat(0), repeat(1), zip(ms)))
        return map(self._off_exact.get, range(len(ms)), exact)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


def embed(
    text: str,
    codebook: Codebook,
    bits: str,
    n: int = 5,
    k: int = 3,
    key=None,
) -> EncodedDocument:
    """Embed a bit string, returning per-letter glyph indices.

    Skipped and trailing uncoded letters carry integer 0 (the perceptually
    closest glyph).  With a permutation key, every embedded integer i is
    mapped to the glyph at the key's position i.
    """
    seq = _check_text(text, codebook)
    layout = _text_layout(seq.capacities, n, k)
    if not len(layout.widths):
        raise DocumentTooSmallError("document has zero complete blocks")
    framed = _frame(_digits(bits), int(layout.widths.sum()))
    payloads = _chunk(framed, layout.widths)
    return EncodedDocument(
        text, _encode(seq, layout, payloads, codebook, key), codebook.font_id
    )


def extract(
    encoded: EncodedDocument,
    codebook: Codebook,
    n: int = 5,
    k: int = 3,
    key=None,
    likelihoods: Optional[Sequence[np.ndarray]] = None,
) -> tuple[str, DecodeReport]:
    """Recover the message and its per-block decode report.

    Blocks are recomputed from the text, decoded by Hamming distance with
    maximum-likelihood resolution of ties.  Without a channel trace the
    likelihood rows are uniform, so a tie goes to the candidate whose
    mismatched letters have the smallest product of glyph counts, then to the
    smallest m.  The key must fit the codebook, and every letter's glyph
    index and likelihood row is checked against the key and the codebook, in
    letter order, before any block is decoded; rows are built only for blocks
    whose Hamming decode ties.  A glyph index that is not an integer (as
    ``operator.index`` reads one) raises ContractViolation, and a None reads
    as a letter that fails its block.  Raises PartialDecodeError at the
    first block that cannot be decoded.  The report (:class:`DecodeReport`)
    keeps the decoded payloads and the outcomes of the blocks off the exact
    path, and builds an exact block's outcome only when that block is read.
    """
    seq = _check_text(encoded.text, codebook)
    count = len(seq.letters)
    if len(encoded.glyph_indices) != count:
        raise ContractViolation("glyph index stream does not match the letter count")
    layout = _text_layout(seq.capacities, n, k)
    if not len(layout.widths):
        raise DocumentTooSmallError("document has zero complete blocks")
    if likelihoods is not None and len(likelihoods) != count:
        raise ContractViolation("likelihood table does not match the letter count")

    received = _received(encoded.glyph_indices, count)
    refused = count  # the first letter whose glyph index the key cannot map
    if key is not None:
        received = key.inverse_ids(seq.chars, seq.ids, received, codebook)
        marked = np.flatnonzero(received == _REFUSED)
        refused = int(marked[0]) if len(marked) else count
    if likelihoods is not None:  # each row is checked before its letter's key
        for i, cap in enumerate(seq.capacities[: refused + 1]):
            if np.asarray(likelihoods[i], dtype=float).shape != (cap,):
                raise ContractViolation(f"likelihood row {i} has wrong length")
    if refused < count:  # raises the key's error for that glyph index
        key.inverse(seq.letters[refused], encoded.glyph_indices[refused])

    def row(i: int) -> np.ndarray:
        r = np.asarray(likelihoods[i], dtype=float)
        return r if key is None else key.inverse_row(seq.letters[i], r)

    payloads, slow, (failed,) = _decode(
        seq.capacities, layout, received, row if likelihoods is not None else None
    )
    if failed is not None:
        raise PartialDecodeError(failed)
    message = _text(_unframe(_bits(payloads, layout.widths)))
    return message, DecodeReport(payloads, slow)


def baseline_block_bits(capacities: Sequence[int]) -> int:
    """Information bits a block-coded baseline leaves after spending
    2*ceil(log2 max s) redundancy bits to correct one letter error."""
    total = sum(int(math.floor(math.log2(s))) for s in capacities)
    return total - 2 * math.ceil(math.log2(max(capacities)))


def capacity_report(
    codebook: Codebook,
    text: Optional[str] = None,
    n: int = 5,
    k: int = 3,
    frequencies: Optional[dict[str, float]] = None,
    sample_blocks: int = 100_000,
    seed: int = 0,
) -> dict:
    """Embedding capacity, either of a concrete text or Monte-Carlo sampled
    from a letter-frequency table.  A size, count or seed that is not an
    integer is refused."""
    if (text is None) == (frequencies is None):
        raise ContractViolation("provide exactly one of text or frequencies")
    sample_blocks, seed = as_integer(sample_blocks, "sample_blocks"), as_integer(seed, "seed")
    if sample_blocks < 0:
        raise ContractViolation("sample_blocks must be non-negative")
    if text is not None:
        caps = _check_text(text, codebook).capacities
        total_bits = int(_text_layout(caps, n, k).widths.sum())
        letters = len(caps)
    else:
        n, k = _check_sizes(n, k)  # n sizes the draws
        chars = sorted(frequencies)
        weights = np.array([frequencies[c] for c in chars], dtype=float)
        weights = weights / weights.sum()
        rng = np.random.default_rng(seed)
        draws = rng.choice(len(chars), size=sample_blocks * (n + 4), p=weights)
        caps_by_char = np.array([codebook.capacity(c) for c in chars], dtype=np.int64)
        # the first sample_blocks blocks, or fewer if the draws run out
        # first; draws never repeat, so they bypass the layout memo
        layout = _build_layout(caps_by_char[draws].tolist(), n, k, limit=sample_blocks)
        total_bits = int(layout.widths.sum())
        # draws used, skipped included
        letters = int(layout.members[-1, -1]) + 1 if len(layout.members) else 0
        if sample_blocks and not letters:
            raise ContractViolation("codebook capacities cannot form coprime blocks")
    bits_per_letter = total_bits / letters if letters else 0.0
    return {
        "total_bits": total_bits,
        "letters": letters,
        "bits_per_letter": bits_per_letter,
        "letters_for_128_bits": (
            math.ceil(128 / bits_per_letter) if bits_per_letter else math.inf
        ),
    }
