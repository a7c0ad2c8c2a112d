"""End-to-end message embedding and extraction.

A document's letters are partitioned left to right into blocks of n letters.
Each block gets pairwise-coprime moduli p_i <= s_i (s_i = the letter's glyph
count) chosen by depth-first search to maximize the product of the k smallest,
and carries floor(log2 M_t) message bits.  When no coprime assignment exists
the lowest-capacity letter is dropped from the block and the next letter is
pulled in; dropped and trailing letters carry the index-0 glyph and no
payload.  The block layout is a pure function of (text, codebook, n, k), so
the extractor recomputes it instead of transmitting it.  The Monte-Carlo
capacity estimate partitions its sampled letters with the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .codebook import Codebook
from .crc import DecodeOutcome, ModuliSet, _resolve_tie, encode_phi, hamming_decode
from .errors import (
    CapacityExceededError,
    ContractViolation,
    CorruptFrameError,
    DocumentTooSmallError,
    KeyMismatchError,
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
        return self.payload_bound.bit_length() - 1  # floor(log2 M_t)


@dataclass(frozen=True)
class EncodedDocument:
    text: str
    glyph_indices: tuple[int, ...]  # one per codebook-covered letter, in order
    codebook_id: str


def letter_sequence(text: str, codebook: Codebook) -> LetterSequence:
    letters, caps, positions = [], [], []
    for pos, ch in enumerate(text):
        if ch in codebook.entries:
            letters.append(ch)
            caps.append(codebook.capacity(ch))
            positions.append(pos)
    return LetterSequence(tuple(letters), tuple(caps), tuple(positions))


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
# mostly meet new tuples, which the search handles in well under a millisecond
@lru_cache(maxsize=4096)
def _choose_moduli_cached(capacities: tuple[int, ...], k: int) -> Optional[ModuliSet]:
    return choose_moduli(capacities, k)


def _blocks(capacities: Sequence[int], n: int, k: int) -> Iterator[Block]:
    """Greedy left-to-right block partition with the capacity-expansion rule.

    Yields blocks over indices into ``capacities`` and stops once fewer than n
    letters remain, also when that happens while a block is still expanding;
    the remainder is uncoded.
    """
    total = len(capacities)
    cursor = 0
    while cursor + n <= total:
        window = list(range(cursor, cursor + n))
        skipped: list[int] = []
        while True:
            caps = tuple(capacities[i] for i in window)
            moduli = _choose_moduli_cached(caps, k)
            if moduli is not None:
                break
            # drop the (first) lowest-capacity letter, pull in the next one
            drop = min(range(n), key=lambda j: (caps[j], j))
            skipped.append(window.pop(drop))
            nxt = cursor + n + len(skipped) - 1
            if nxt >= total:
                return
            window.append(nxt)
        yield Block(tuple(window), tuple(skipped), moduli)
        cursor += n + len(skipped)


def partition_blocks(seq: LetterSequence, n: int = 5, k: int = 3) -> list[Block]:
    """Block partition of a document's letter sequence (see :func:`_blocks`)."""
    if not seq.letters:
        raise ContractViolation("letter sequence is empty")
    return list(_blocks(seq.capacities, n, k))


def frame_message(bits: str, total_bits: int) -> str:
    """Length-prefix framing: 32-bit big-endian payload bit count, payload,
    zero padding out to the document's full coded width."""
    if any(b not in "01" for b in bits):
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


def chunk_message(framed: str, blocks: Sequence[Block]) -> list[int]:
    """Cut bit_width(t) bits per block, big-endian."""
    widths = [b.bit_width for b in blocks]
    if len(framed) > sum(widths):
        raise ContractViolation("framed message exceeds total block width")
    out: list[int] = []
    at = 0
    for w in widths:
        chunk = framed[at : at + w].ljust(w, "0")
        out.append(int(chunk, 2) if w else 0)
        at += w
    return out


def _check_text(text: str, codebook: Codebook) -> LetterSequence:
    seq = letter_sequence(text, codebook)
    if not seq.letters:
        raise DocumentTooSmallError("document contains no codebook letters")
    return seq


def _encode_blocks(
    seq: LetterSequence, blocks: Sequence[Block], payloads: Sequence[int], key=None
) -> tuple[int, ...]:
    """Glyph index per letter: each block's payload as its residues, 0 for
    uncoded letters, then mapped through the key."""
    indices = [0] * len(seq.letters)
    for block, m in zip(blocks, payloads):
        for i, residue in zip(block.member_indices, encode_phi(m, block.moduli)):
            indices[i] = residue
    if key is not None:
        indices = [key.forward(ch, v) for ch, v in zip(seq.letters, indices)]
    return tuple(indices)


def _uniform_row(capacity: int) -> np.ndarray:
    return np.full(capacity, 1.0 / capacity)


def _check_key_width(key, character: str, capacity: int, checked: set[str]) -> None:
    """Raise the key's KeyMismatchError when its permutation for ``character``
    does not cover the letter's ``capacity`` glyphs; ``checked`` holds the
    characters already checked, so each is checked once."""
    if character not in checked:
        key.inverse_row(character, _uniform_row(capacity))
        checked.add(character)


def _decode_blocks(
    seq: LetterSequence,
    blocks: Sequence[Block],
    values: Sequence[int],
    row: Optional[Callable[[int], np.ndarray]] = None,
    key=None,
    checked: Optional[set[str]] = None,
) -> tuple[str, list[DecodeOutcome]]:
    """Decode each block to its ``bit_width`` bits.

    ``values`` gives each letter's received integer and ``row(i)`` letter i's
    likelihood row in the same order; rows are uniform when ``row`` is None.
    Rows are read only on a Hamming tie, so they are built for those blocks
    alone.  With ``key``, ``values`` are glyph indices mapped back through the
    key block by block, and an index the key cannot map fails its block (a
    uniform row needs no mapping); its width is checked once per character,
    and callers may share ``checked`` across calls.  A block that reaches past
    the end of ``values`` fails.  Raises PartialDecodeError at the first
    failed block.
    """
    outcomes: list[DecodeOutcome] = []
    bits = []
    checked = set() if checked is None else checked
    for t, block in enumerate(blocks):
        members = block.member_indices
        if members[-1] >= len(values):  # members ascend
            raise PartialDecodeError(t)
        vector = []
        for i in members:
            v = values[i]
            if key is not None:
                ch = seq.letters[i]
                try:
                    v = key.inverse(ch, v)
                except KeyMismatchError as exc:
                    raise PartialDecodeError(t) from exc
                _check_key_width(key, ch, seq.capacities[i], checked)
            vector.append(v)
        outcome = hamming_decode(vector, block.moduli)
        if outcome.status == "ambiguous-fail":
            g = [
                row(i) if row is not None else _uniform_row(seq.capacities[i])
                for i in members
            ]
            outcome = _resolve_tie(outcome, vector, block.moduli, g)
        outcomes.append(outcome)
        if outcome.m is None:
            raise PartialDecodeError(t)
        bits.append(format(outcome.m, f"0{block.bit_width}b")[-block.bit_width :])
    return "".join(bits), outcomes


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
    blocks = partition_blocks(seq, n, k)
    if not blocks:
        raise DocumentTooSmallError("document has zero complete blocks")
    framed = frame_message(bits, sum(b.bit_width for b in blocks))
    indices = _encode_blocks(seq, blocks, chunk_message(framed, blocks), key)
    return EncodedDocument(text, indices, codebook.font_id)


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
    smallest m.  Every letter's glyph index and likelihood row is checked
    against the key and the codebook before any block is decoded; rows are
    built only for blocks whose Hamming decode ties.
    """
    seq = _check_text(encoded.text, codebook)
    if len(encoded.glyph_indices) != len(seq.letters):
        raise ContractViolation("glyph index stream does not match the letter count")
    blocks = partition_blocks(seq, n, k)
    if not blocks:
        raise DocumentTooSmallError("document has zero complete blocks")
    if likelihoods is not None and len(likelihoods) != len(seq.letters):
        raise ContractViolation("likelihood table does not match the letter count")

    indices = list(encoded.glyph_indices)
    if likelihoods is not None or key is not None:
        checked: set[str] = set()
        for i, ch in enumerate(seq.letters):
            cap = seq.capacities[i]
            if likelihoods is not None:
                if np.asarray(likelihoods[i], dtype=float).shape != (cap,):
                    raise ContractViolation(f"likelihood row {i} has wrong length")
            if key is not None:
                indices[i] = key.inverse(ch, indices[i])
                _check_key_width(key, ch, cap, checked)

    def row(i: int) -> np.ndarray:
        r = np.asarray(likelihoods[i], dtype=float)
        return r if key is None else key.inverse_row(seq.letters[i], r)

    bits, report = _decode_blocks(
        seq, blocks, indices, row if likelihoods is not None else None
    )
    return unframe_message(bits), report


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
    target_bits: int = 128,
) -> dict:
    """Embedding capacity, either of a concrete text or Monte-Carlo sampled
    from a letter-frequency table."""
    if (text is None) == (frequencies is None):
        raise ContractViolation("provide exactly one of text or frequencies")
    if text is not None:
        seq = _check_text(text, codebook)
        blocks = partition_blocks(seq, n, k)
        total_bits = sum(b.bit_width for b in blocks)
        letters = len(seq.letters)
    else:
        chars = sorted(frequencies)
        weights = np.array([frequencies[c] for c in chars], dtype=float)
        weights = weights / weights.sum()
        rng = np.random.default_rng(seed)
        draws = rng.choice(len(chars), size=sample_blocks * (n + 4), p=weights)
        caps_by_char = {c: codebook.capacity(c) for c in chars}
        draw_caps = [caps_by_char[chars[i]] for i in draws]
        # the first sample_blocks blocks, or fewer if the draws run out first
        total_bits = letters = 0
        for block in islice(_blocks(draw_caps, n, k), sample_blocks):
            total_bits += block.bit_width
            letters = block.member_indices[-1] + 1  # draws used, skipped included
        if sample_blocks and not letters:
            raise ContractViolation("codebook capacities cannot form coprime blocks")
    bits_per_letter = total_bits / letters if letters else 0.0
    letters_for_target = (
        math.ceil(target_bits / bits_per_letter) if bits_per_letter else math.inf
    )
    return {
        "total_bits": total_bits,
        "letters": letters,
        "bits_per_letter": bits_per_letter,
        "letters_for_128_bits": letters_for_target,
    }
