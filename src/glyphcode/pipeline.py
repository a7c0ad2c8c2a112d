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

The partition is held as arrays (:class:`_Layout`): a (B, n) array of each
block's letters, a moduli-set id per block, the distinct sets and the few
skipped letters.  :func:`_build_layout` makes it in one walk over the
letters, looking each window's capacity tuple up by a key in one dict per
call.  Embedding chunks the framed message and encodes every block in array
passes.  Extraction decodes every block with no misread letter in one pass
by Garner's weights, m = sum_j r_j w_j mod P, kept where every residue is in
range and m < M; only the other blocks go, in block order, to the Hamming
decoder and its likelihood tie-break.  A set whose weighted sum could reach
2^62 decodes block by block, and payloads wider than 62 bits are Python
integers.  :func:`partition_blocks` returns the layout as :class:`Block`
views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codebook import Codebook
from .crc import DecodeOutcome, ModuliSet, _resolve_tie, hamming_decode
from .errors import (
    CapacityExceededError,
    ContractViolation,
    CorruptFrameError,
    DocumentTooSmallError,
    PartialDecodeError,
)

__all__ = [
    "LetterSequence",
    "Block",
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
_INT64_BITS = 62  # payload widths and weighted sums below 2^62 stay in int64


@dataclass(frozen=True)
class LetterSequence:
    """The document's codebook-covered letters, in order."""

    letters: tuple[str, ...]
    capacities: tuple[int, ...]
    positions: tuple[int, ...]  # original document indices


@dataclass(frozen=True)
class Block:
    member_indices: tuple[int, ...]  # indices into the letter sequence
    skipped_indices: tuple[int, ...]
    moduli: ModuliSet

    @property
    def payload_bound(self) -> int:
        return self.moduli.payload_bound

    @property
    def bit_width(self) -> int:
        return self.moduli.payload_bound.bit_length() - 1  # floor(log2 M_t)


@dataclass(frozen=True)
class EncodedDocument:
    text: str
    glyph_indices: tuple[int, ...]  # one per codebook-covered letter, in order
    codebook_id: str


def _capacities(codebook: Codebook) -> dict[str, int]:
    """Each codebook character's glyph count."""
    return {ch: entry.capacity for ch, entry in codebook.entries.items()}


def letter_sequence(text: str, codebook: Codebook) -> LetterSequence:
    caps = _capacities(codebook)
    positions = [pos for pos, ch in enumerate(text) if ch in caps]
    letters = [text[pos] for pos in positions]
    return LetterSequence(
        tuple(letters), tuple([caps[ch] for ch in letters]), tuple(positions)
    )


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
    """
    caps = [int(c) for c in capacities]
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
    dropped any.
    """

    members: np.ndarray
    set_ids: np.ndarray
    sets: tuple[ModuliSet, ...]
    moduli: np.ndarray
    widths: np.ndarray
    skipped: dict[int, tuple[int, ...]]

    def blocks(self) -> list[Block]:
        sets, skipped = self.sets, self.skipped
        return [
            Block(tuple(row), skipped.get(t, ()), sets[s])
            for t, (row, s) in enumerate(zip(self.members.tolist(), self.set_ids.tolist()))
        ]


def _payload_dtype(widths: np.ndarray):
    """int64 while every payload fits it, else Python integers."""
    return np.int64 if widths.max(initial=0) <= _INT64_BITS else object


def _build_layout(
    capacities: Sequence[int], n: int, k: int, limit: Optional[int] = None
) -> _Layout:
    """Greedy left-to-right block partition with the capacity-expansion rule.

    Takes blocks over indices into ``capacities`` and stops once fewer than n
    letters remain, also when that happens while a block is still expanding,
    or once ``limit`` blocks are taken; the remainder is uncoded.  A cursor
    walks block by block.  Each window of n letters has a mixed-radix key of
    its capacities, computed for every letter position at once; a dict maps
    each key met to its moduli set's index, so the moduli search sees each
    distinct capacity tuple once per call.  A window that cannot form drops
    its (first) lowest-capacity letter and pulls in the next one until it
    can, looking each tried window up by the same key.  Takes nothing at
    once when no window could ever form a block: n pairwise-coprime values
    >= 2 have n distinct prime factors, so they need n primes <= the largest
    capacity.
    """
    caps = np.asarray(capacities, dtype=np.int64).reshape(-1)
    total = len(caps)
    limit = total if limit is None else limit
    keys: list[int] = []  # keys[i]: the key of the window that starts at letter i
    if total >= n and limit > 0:
        if n < 2 or not 1 <= k < n:
            raise ContractViolation("need n >= 2 and 1 <= k < n")
        # the first window's largest capacity bounds the largest from below
        # and mostly settles the check without scanning every letter
        if n > _prime_count(int(caps[:n].max())) and n > _prime_count(int(caps.max())):
            total = 0
        else:
            # digits from 0, so that distinct tuples get distinct keys
            digits = caps - caps.min()
            base = int(digits.max()) + 1
            powers = [base**j for j in range(n)]
            place = np.array(powers, dtype=np.int64 if base**n < 1 << 63 else object)
            keys = (sliding_window_view(digits, n) @ place).tolist()
    sets: list[ModuliSet] = []
    found: dict[int, Optional[int]] = {}  # window key -> index into sets

    def search(key: int, letters: slice | list[int]) -> Optional[int]:
        """Record and return the index into ``sets`` of a window met first."""
        moduli = _choose_moduli_cached(tuple(caps[letters].tolist()), k)
        found[key] = None if moduli is None else len(sets)
        if moduli is not None:
            sets.append(moduli)
        return found[key]

    starts: list[int] = []  # each block's first letter
    set_ids: list[int] = []
    expanded: dict[int, list[int]] = {}  # members of each block that skipped
    skipped: dict[int, tuple[int, ...]] = {}
    cursor = 0  # the next letter to take
    while cursor + n <= total and len(set_ids) < limit:
        key = keys[cursor]
        s = found[key] if key in found else search(key, slice(cursor, cursor + n))
        start, cursor = cursor, cursor + n
        if s is None:
            # drop the (first) lowest-capacity letter, pull in the next one
            window, row = list(range(start, cursor)), digits[start:cursor].tolist()
            dropped: list[int] = []
            while s is None and cursor < total:
                drop = row.index(min(row))
                dropped.append(window.pop(drop))
                del row[drop]
                window.append(cursor)
                row.append(int(digits[cursor]))
                cursor += 1
                key = sum(d * p for d, p in zip(row, powers))
                s = found[key] if key in found else search(key, window)
            if s is None:
                break
            expanded[len(set_ids)] = window
            skipped[len(set_ids)] = tuple(dropped)
        starts.append(start)
        set_ids.append(s)
    members = np.array(starts, dtype=np.intp)[:, None] + np.arange(n)
    if expanded:
        members[list(expanded)] = list(expanded.values())
    ids = np.array(set_ids, dtype=np.intp)
    set_widths = np.array([m.payload_bound.bit_length() - 1 for m in sets], dtype=np.int64)
    return _Layout(
        members=members,
        set_ids=ids,
        sets=tuple(sets),
        moduli=np.array([m.p for m in sets], dtype=np.int64).reshape(len(sets), n),
        widths=set_widths[ids],
        skipped=skipped,
    )


def partition_blocks(seq: LetterSequence, n: int = 5, k: int = 3) -> list[Block]:
    """Block partition of a document's letter sequence (see
    :func:`_build_layout`)."""
    if not seq.letters:
        raise ContractViolation("letter sequence is empty")
    return _build_layout(seq.capacities, n, k).blocks()


def frame_message(bits: str, total_bits: int) -> str:
    """Length-prefix framing: 32-bit big-endian payload bit count, payload,
    zero padding out to the document's full coded width."""
    if bits.count("0") + bits.count("1") != len(bits):
        raise ContractViolation("message must be a bit string of '0'/'1'")
    if len(bits) >= 1 << LENGTH_PREFIX_BITS:
        raise CapacityExceededError("message too long for the length prefix")
    framed = format(len(bits), f"0{LENGTH_PREFIX_BITS}b") + bits
    if len(framed) > total_bits:
        raise CapacityExceededError(
            f"framed message needs {len(framed)} bits, document holds {total_bits}"
        )
    return framed + "0" * (total_bits - len(framed))


def unframe_message(bits: str) -> str:
    if len(bits) < LENGTH_PREFIX_BITS:
        raise CorruptFrameError("fewer bits than the length prefix")
    length = int(bits[:LENGTH_PREFIX_BITS], 2)
    if length > len(bits) - LENGTH_PREFIX_BITS:
        raise CorruptFrameError(
            f"length prefix {length} exceeds available {len(bits) - LENGTH_PREFIX_BITS} bits"
        )
    return bits[LENGTH_PREFIX_BITS : LENGTH_PREFIX_BITS + length]


def _bit_matrix(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row per block, as wide as the widest: each column's big-endian
    shift, and whether the column is one of the block's bits."""
    shifts = widths[:, None] - 1 - np.arange(widths.max(initial=0))
    return np.maximum(shifts, 0), shifts >= 0


def _chunk(framed: str, widths: np.ndarray) -> np.ndarray:
    """Cut widths[t] bits per block, big-endian; bits past the end of
    ``framed`` read 0."""
    digits = np.zeros(int(widths.sum()), dtype=np.uint8)
    if len(framed) > len(digits):
        raise ContractViolation("framed message exceeds total block width")
    if framed.count("0") + framed.count("1") != len(framed):
        raise ContractViolation("framed message must be a bit string of '0'/'1'")
    digits[: len(framed)] = np.frombuffer(framed.encode("ascii"), dtype=np.uint8) - ord("0")
    shifts, mine = _bit_matrix(widths)
    at = np.cumsum(widths)[:, None] - 1 - shifts  # each bit's place in ``digits``
    bits = np.where(mine, digits[at], 0).astype(_payload_dtype(widths))
    return (bits << shifts).sum(axis=1)


def _bits(payloads: np.ndarray, widths: np.ndarray) -> str:
    """Each block's payload as its low widths[t] bits, big-endian, joined."""
    shifts, mine = _bit_matrix(widths)
    digits = ((payloads[:, None] >> shifts) & 1)[mine].astype(np.uint8)
    return (digits + ord("0")).tobytes().decode("ascii")


def chunk_message(framed: str, blocks: Sequence[Block]) -> list[int]:
    """Cut bit_width(t) bits per block, big-endian."""
    widths = np.array([b.bit_width for b in blocks], dtype=np.int64)
    return _chunk(framed, widths).tolist()


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
    codebook."""
    residues = payloads[:, None] % layout.moduli[layout.set_ids]
    indices = np.zeros(len(seq.letters), dtype=residues.dtype)
    indices[layout.members] = residues
    out = indices.tolist()
    if key is not None:
        out = key.forward_letters(seq.letters, out, _capacities(codebook))
    return tuple(out)


def _received(values: Sequence[Optional[int]], count: int) -> np.ndarray:
    """``values`` over ``count`` letters as int64.  A None, a value int64
    cannot hold and a letter past the end of ``values`` read -1, which no
    residue equals."""
    vals = np.full(count, -1, dtype=np.int64)
    try:
        vals[: len(values)] = np.fromiter(values, dtype=np.int64, count=len(values))
    except (OverflowError, TypeError):  # a None, or a value past int64
        vals[: len(values)] = [
            v if v is not None and 0 <= v < 1 << _INT64_BITS else -1 for v in values
        ]
    return vals


def _inverse_mod(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^-1 mod m elementwise, for coprime a < m, by the extended Euclidean
    algorithm run on every element at once."""
    r0, r1 = a, m
    s0, s1 = np.ones_like(a), np.zeros_like(a)
    while (live := r1 != 0).any():
        q = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, 0)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, 0)
    return s0 % m


def _garner(layout: _Layout) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct set: Garner's weights w_j = (P/p_j)((P/p_j)^-1 mod p_j),
    P, M, and whether n * max(p) * P < 2^62, so that sum_j r_j w_j stays in
    int64.  The other sets get weights 0 and P = 1, and decode per block."""
    p = layout.moduli
    # in floating point, with a margin that sends a set per block when in doubt
    bound = np.prod(p, axis=1, dtype=float) * p.max(axis=1, initial=1) * p.shape[1]
    safe = bound < 2.0**_INT64_BITS * (1 - 1e-9)
    P = np.prod(np.where(safe[:, None], p, 1), axis=1)
    cofactor = P[:, None] // p
    weights = cofactor * _inverse_mod(cofactor % p, p)
    M = np.array(
        [s.payload_bound if ok else 0 for s, ok in zip(layout.sets, safe.tolist())],
        dtype=np.int64,
    )
    return weights, P, M, safe


def _uniform_row(capacity: int) -> np.ndarray:
    return np.full(capacity, 1.0 / capacity)


def _decode(
    seq: LetterSequence,
    layout: _Layout,
    values: Sequence[Optional[int]],
    row: Optional[Callable[[int], np.ndarray]] = None,
    ends: Optional[Sequence[int]] = None,
) -> tuple[np.ndarray, dict[int, DecodeOutcome], list[Optional[int]]]:
    """Decode every block's payload.

    ``values`` gives each letter's received integer and ``row(i)`` letter i's
    likelihood row in the same order; rows are uniform when ``row`` is None.
    Every block whose residues are all in range and reconstruct below M
    takes the exact path in one pass.  The others go, in block order, to
    :func:`hamming_decode`, and rows are built only for those whose Hamming
    decode ties.  Blocks decode in groups that end before each of ``ends``
    (ascending, the last the block count; one group by default).  A block
    that holds a None (a glyph index the key could not map), reaches past
    the end of ``values`` or stays ambiguous fails its group, whose later
    blocks are then not decoded.

    Returns the payloads (0 where none was decoded), the outcome of each
    block off the exact path, and each group's first failed block or None.
    """
    ids = layout.set_ids
    r = _received(values, len(seq.letters))[layout.members]
    weights, P, M, safe = _garner(layout)
    live = ((r >= 0) & (r < layout.moduli[ids])).all(axis=1) & safe[ids]
    m = (np.where(live[:, None], r, 0) * weights[ids]).sum(axis=1) % P[ids]
    exact = live & (m < M[ids])
    payloads = np.where(exact, m, 0).astype(_payload_dtype(layout.widths))

    slow: dict[int, DecodeOutcome] = {}
    ends = [len(ids)] if ends is None else ends
    failed: list[Optional[int]] = [None] * len(ends)
    group = 0
    pending = np.flatnonzero(~exact)
    for t, members, s in zip(
        pending.tolist(), layout.members[pending].tolist(), ids[pending].tolist()
    ):
        while t >= ends[group]:
            group += 1
        if failed[group] is not None:
            continue
        vector = [values[i] for i in members] if members[-1] < len(values) else [None]
        if None in vector:
            failed[group] = t
            continue
        moduli = layout.sets[s]
        outcome = hamming_decode(vector, moduli)
        if outcome.status == "ambiguous-fail":
            g = [
                row(i) if row is not None else _uniform_row(seq.capacities[i])
                for i in members
            ]
            outcome = _resolve_tie(outcome, vector, moduli, g)
        slow[t] = outcome
        if outcome.m is None:
            failed[group] = t
            continue
        payloads[t] = outcome.m
    return payloads, slow, failed


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
    layout = _build_layout(seq.capacities, n, k)
    if not len(layout.widths):
        raise DocumentTooSmallError("document has zero complete blocks")
    framed = frame_message(bits, int(layout.widths.sum()))
    payloads = _chunk(framed, layout.widths)
    return EncodedDocument(text, _encode(seq, layout, payloads, codebook, key), codebook.font_id)


def extract(
    encoded: EncodedDocument,
    codebook: Codebook,
    n: int = 5,
    k: int = 3,
    key=None,
    likelihoods: Optional[Sequence[np.ndarray]] = None,
) -> tuple[str, list[DecodeOutcome]]:
    """Recover the message and a per-block decode report.

    Blocks are recomputed from the text, decoded by Hamming distance with
    maximum-likelihood resolution of ties.  Without a channel trace the
    likelihood rows are uniform, so a tie goes to the candidate whose
    mismatched letters have the smallest product of glyph counts, then to the
    smallest m.  The key must fit the codebook, and every letter's glyph
    index and likelihood row is checked against the key and the codebook, in
    letter order, before any block is decoded; rows are built only for blocks
    whose Hamming decode ties.  Raises PartialDecodeError at the first block
    that cannot be decoded.
    """
    seq = _check_text(encoded.text, codebook)
    if len(encoded.glyph_indices) != len(seq.letters):
        raise ContractViolation("glyph index stream does not match the letter count")
    layout = _build_layout(seq.capacities, n, k)
    if not len(layout.widths):
        raise DocumentTooSmallError("document has zero complete blocks")
    if likelihoods is not None and len(likelihoods) != len(seq.letters):
        raise ContractViolation("likelihood table does not match the letter count")

    indices = encoded.glyph_indices
    refused = len(indices)  # the first letter whose glyph index the key cannot map
    if key is not None:
        indices = key.inverse_letters(seq.letters, indices, _capacities(codebook))
        if None in indices:
            refused = indices.index(None)
    if likelihoods is not None:  # each row is checked before its letter's key
        for i, cap in enumerate(seq.capacities[: refused + 1]):
            if np.asarray(likelihoods[i], dtype=float).shape != (cap,):
                raise ContractViolation(f"likelihood row {i} has wrong length")
    if refused < len(indices):  # raises the key's error for that glyph index
        key.inverse(seq.letters[refused], encoded.glyph_indices[refused])

    def row(i: int) -> np.ndarray:
        r = np.asarray(likelihoods[i], dtype=float)
        return r if key is None else key.inverse_row(seq.letters[i], r)

    payloads, slow, (failed,) = _decode(
        seq, layout, indices, row if likelihoods is not None else None
    )
    if failed is not None:
        raise PartialDecodeError(failed)
    report = [
        slow[t] if t in slow else DecodeOutcome("exact", m, 0, 1, (m,))
        for t, m in enumerate(payloads.tolist())
    ]
    return unframe_message(_bits(payloads, layout.widths)), report


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
    from a letter-frequency table."""
    if (text is None) == (frequencies is None):
        raise ContractViolation("provide exactly one of text or frequencies")
    if sample_blocks < 0:
        raise ContractViolation("sample_blocks must be non-negative")
    if text is not None:
        seq = _check_text(text, codebook)
        total_bits = int(_build_layout(seq.capacities, n, k).widths.sum())
        letters = len(seq.letters)
    else:
        chars = sorted(frequencies)
        weights = np.array([frequencies[c] for c in chars], dtype=float)
        weights = weights / weights.sum()
        rng = np.random.default_rng(seed)
        draws = rng.choice(len(chars), size=sample_blocks * (n + 4), p=weights)
        caps_by_char = np.array([codebook.capacity(c) for c in chars], dtype=np.int64)
        # the first sample_blocks blocks, or fewer if the draws run out first
        layout = _build_layout(caps_by_char[draws], n, k, limit=sample_blocks)
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
