"""Permutation-key encryption and segment-level document signatures.

The symmetric secret is, per character, a permutation of its glyph list:
embedding stores integer i as the glyph at the key's position i, so extraction
without the key sees uniformly scrambled integers.  Signatures split the
document into segments of at least ``segment_min_letters`` coded letters and
embed each segment's content hash into that segment, either under a private
permuted codebook (scheme 1) or as an asymmetric signature over the hash
embedded with the public codebook (scheme 2).  Verification recomputes the
hashes and localizes tampering to the segment level.  The scheme-2 provider is
a toy textbook RSA whose 32-bit primes come from a trial-division search, so
the module needs numpy alone.

Signing and verification reuse the message pipeline's letter record
(:class:`~glyphcode.pipeline.LetterSequence`), columnar block layout and
array codec.  Each call runs the code-point pass over the letters and builds
the layout once, and a segment's digest hashes a slice of the record's
letters, which are joined into one string.  The segments are held as
columns, six int lists of block, letter and coded-bit bounds; each segment's
end is found by a binary search over the blocks' running letter and bit
counts, and only :func:`segment_text` builds :class:`Segment` records from
them.  The coded bits are one uint8 array of 0s and 1s: signing scatters
the payloads' bits, as (S, P) rows (one ``np.unpackbits`` of the joined
digests for scheme 1), at the segments' bit offsets and encodes the whole
document in one pass; verification decodes the whole document in one pass,
gathers the first P bits of every segment as one (S, P) array and compares
it with the digests' rows in one pass (scheme 2 reads it as one bit string
for the verifier), so the cost is linear in the document length.  A
segment's decode stops at its first block that fails, as a per-segment
decode would.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .codebook import Codebook
from .errors import ContractViolation, KeyMismatchError, SigningError
from .pipeline import (
    EncodedDocument,
    LetterSequence,
    _bits,
    _chunk,
    _decode,
    _digits,
    _encode,
    _Layout,
    _received,
    _text,
    _text_layout,
    letter_sequence,
)
from .util import as_integer, stable_seed

__all__ = [
    "PermutationKey",
    "SignatureConfig",
    "Segment",
    "SegmentResult",
    "VerificationReport",
    "ToyRsaProvider",
    "keygen",
    "identity_key",
    "key_space_bits",
    "segment_text",
    "sign_scheme1",
    "sign_scheme2",
    "verify",
    "content_hash",
]

_INTEGERS = (int, np.integer)  # the values a key maps; any other is refused


@dataclass(frozen=True)
class PermutationKey:
    """Per-character bijection over glyph indices.

    Integer i of character ``ch`` is stored as glyph ``perms[ch][i]``; the
    key holds its permutations and nothing derived from them, so every map
    reads ``perms`` as it stands.  A key fits a codebook when it holds, for
    every codebook character, a permutation of exactly that character's
    glyph count; characters the codebook lacks are allowed.  :meth:`forward`
    and :meth:`inverse` map one value, which must be an integer in the
    character's range, else KeyMismatchError is raised.  The sequence
    maps take letters as ids into a tuple of the codebook's characters and
    map them all by one gather from a 2-D table filled from ``perms`` per
    call: forward indexed by [id, integer], inverse by [id, glyph index],
    where a glyph index out of a character's range is refused.  They check
    the fit first, so a key that does not fit raises KeyMismatchError before
    any letter is mapped.
    """

    key_id: str
    perms: dict[str, tuple[int, ...]]

    def __post_init__(self):
        for ch, perm in self.perms.items():
            if sorted(perm) != list(range(len(perm))):
                raise ContractViolation(f"mapping for {ch!r} is not a permutation")

    def _perm(self, character: str) -> tuple[int, ...]:
        try:
            return self.perms[character]
        except KeyError:
            raise KeyMismatchError(f"key has no entry for character {character!r}")

    def forward(self, character: str, value: int) -> int:
        perm = self._perm(character)
        if not (isinstance(value, _INTEGERS) and 0 <= value < len(perm)):
            raise KeyMismatchError(
                f"integer {value} out of range for character {character!r}"
            )
        return perm[value]

    def inverse(self, character: str, value: int) -> int:
        perm = self._perm(character)
        if not (isinstance(value, _INTEGERS) and 0 <= value < len(perm)):
            raise KeyMismatchError(
                f"glyph index {value} out of range for character {character!r}"
            )
        return perm.index(value)

    def _table(self, chars: Sequence[str], codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
        """The forward [id, integer] table of ``chars``, 0 past a character's
        width, and the mask of the entries within it, once the key is
        checked to fit ``codebook``: it must permute exactly
        ``codebook.capacity(ch)`` glyphs for every codebook character."""
        for ch, entry in codebook.entries.items():
            perm = self._perm(ch)
            if len(perm) != entry.capacity:
                raise KeyMismatchError(
                    f"key permutes {len(perm)} glyphs for character {ch!r}, "
                    f"which has capacity {entry.capacity}"
                )
        perms = [self.perms[ch] for ch in chars]
        widths = np.array([len(perm) for perm in perms], dtype=np.int64)
        inside = np.arange(widths.max(initial=1)) < widths[:, None]
        table = np.zeros(inside.shape, dtype=np.int64)
        table[inside] = np.fromiter(chain.from_iterable(perms), np.int64, int(widths.sum()))
        return table, inside

    def forward_ids(
        self, chars: Sequence[str], ids: np.ndarray, values: np.ndarray, codebook: Codebook
    ) -> np.ndarray:
        """:meth:`forward` over letters given as ids into ``chars``, which are
        characters of ``codebook``, as one gather from an [id, integer]
        table, once the key is checked to fit ``codebook``; each value must
        be below its letter's width."""
        table = self._table(chars, codebook)[0]
        return table.take(ids * table.shape[1] + values)

    def inverse_ids(
        self, chars: Sequence[str], ids: np.ndarray, values: np.ndarray, codebook: Codebook
    ) -> np.ndarray:
        """:meth:`inverse` over letters given as ids into ``chars``, which are
        characters of ``codebook``, as one gather from an [id, glyph index]
        table scattered from the forward one, once the key is checked to fit
        ``codebook``; a letter whose glyph index is out of range reads -1."""
        forward, inside = self._table(chars, codebook)
        width = forward.shape[1]
        table = np.full(forward.shape, -1, dtype=np.int64)
        rows, integers = np.nonzero(inside)
        table[rows, forward[inside]] = integers
        readable = (values >= 0) & (values < width)
        return np.where(readable, table.take(ids * width + np.where(readable, values, 0)), -1)

    def inverse_row(self, character: str, row: np.ndarray) -> np.ndarray:
        """Reorder a per-glyph likelihood row into embedded-integer order."""
        perm = self._perm(character)
        row = np.asarray(row, dtype=float)
        if row.shape != (len(perm),):
            raise KeyMismatchError(
                f"likelihood row length {row.shape} does not match key for {character!r}"
            )
        return row[np.asarray(perm)]


def keygen(codebook: Codebook, seed: int = 0) -> PermutationKey:
    """Seeded Fisher-Yates permutation per character; reproducible, with
    key id ``key-<seed>``."""
    perms: dict[str, tuple[int, ...]] = {}
    for ch in codebook.characters():
        n = codebook.capacity(ch)
        rng = np.random.default_rng(stable_seed(seed, "perm", ch))
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        perms[ch] = tuple(perm)
    return PermutationKey(f"key-{seed}", perms)


def identity_key(codebook: Codebook) -> PermutationKey:
    return PermutationKey(
        "identity",
        {ch: tuple(range(codebook.capacity(ch))) for ch in codebook.characters()},
    )


def key_space_bits(codebook: Codebook) -> float:
    """log2 of the number of distinct keys: sum over characters of log2(N_c!)."""
    return sum(
        math.lgamma(codebook.capacity(ch) + 1) / math.log(2)
        for ch in codebook.characters()
    )


def content_hash(text: str, hash_id: str = "md5") -> bytes:
    """Digest of a segment's character content."""
    return hashlib.new(hash_id, text.encode("utf-8")).digest()


@dataclass(frozen=True)
class SignatureConfig:
    hash_id: str = "md5"
    segment_min_letters: int = 80
    n: int = 5
    k: int = 3

    def __post_init__(self):
        for name in ("segment_min_letters", "n", "k"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.segment_min_letters < 1:
            raise ContractViolation("segment_min_letters must be positive")
        hashlib.new(self.hash_id)  # fail early on unknown algorithms

    @property
    def digest_bits(self) -> int:
        return hashlib.new(self.hash_id).digest_size * 8


@dataclass(frozen=True)
class Segment:
    """A segment's blocks, letters and bits, each as a [start, end) range:
    block indices, letter-sequence indices and offsets into the document's
    coded bits."""

    block_start: int
    block_end: int
    seq_start: int
    seq_end: int
    bit_start: int
    bit_end: int


@dataclass(frozen=True)
class SegmentResult:
    seq_start: int
    seq_end: int
    status: str  # match | mismatch
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    per_segment: tuple[SegmentResult, ...]

    @property
    def overall(self) -> str:
        ok = all(s.status == "match" for s in self.per_segment)
        return "match" if ok else "mismatch"

    def as_text(self) -> str:
        lines = [f"overall: {self.overall}"]
        for s in self.per_segment:
            note = f" ({s.note})" if s.note else ""
            lines.append(f"letters [{s.seq_start}, {s.seq_end}): {s.status}{note}")
        return "\n".join(lines)


class _Bounds(NamedTuple):
    """The segments as columns: segment i is blocks [block_start[i],
    block_end[i]), letters [seq_start[i], seq_end[i]) and coded bits
    [bit_start[i], bit_end[i]); each segment starts where the one before it
    ends."""

    block_start: list[int]
    block_end: list[int]
    seq_start: list[int]
    seq_end: list[int]
    bit_start: list[int]
    bit_end: list[int]


def segment_text(
    text: str,
    codebook: Codebook,
    config: SignatureConfig,
    payload_bits: Optional[int] = None,
) -> list[Segment]:
    """Greedy segmentation over the block partition.

    Blocks accumulate into the current segment until it spans at least
    ``segment_min_letters`` coded letters and can hold the payload; leftover
    trailing blocks (and trailing uncoded letters) join the last segment so
    every letter is covered by exactly one segment.
    """
    return list(map(Segment, *_layout(text, codebook, config, payload_bits)[2]))


def _layout(
    text: str,
    codebook: Codebook,
    config: SignatureConfig,
    payload_bits: Optional[int],
) -> tuple[LetterSequence, _Layout, _Bounds]:
    """Letters, block layout and segment bounds, each computed once.

    A segment closes at its first block where it spans at least
    ``segment_min_letters`` letters and holds the payload.  Both counts grow
    with every block, so that block is the later of two binary searches.
    """
    seq = letter_sequence(text, codebook)
    if not seq.letters:
        raise ContractViolation("letter sequence is empty")
    layout = _text_layout(seq.capacities, config.n, config.k)
    if not len(layout.widths):
        raise SigningError("document has zero complete blocks")
    need = config.digest_bits if payload_bits is None else payload_bits
    # blocks cover consecutive letter ranges, and a block's last member is
    # the last letter it pulled in, so it ends the newest block
    letter_ends = (layout.members[:, -1] + 1).tolist()
    bit_ends = np.cumsum(layout.widths).tolist()
    lasts: list[int] = []  # each segment's last block
    first = start = held = 0
    while (
        t := max(
            first,
            bisect_left(letter_ends, start + config.segment_min_letters),
            bisect_left(bit_ends, held + need),
        )
    ) < len(letter_ends):
        lasts.append(t)
        first, start, held = t + 1, letter_ends[t], bit_ends[t]
    if not lasts:
        raise SigningError(f"segment 0 holds {bit_ends[-1]} bits, payload needs {need}")
    lasts[-1] = len(letter_ends) - 1  # trailing blocks join the last segment
    block_end = [t + 1 for t in lasts]
    seq_end = [letter_ends[t] for t in lasts]
    seq_end[-1] = len(seq.letters)  # and so do trailing uncoded letters
    bit_end = [bit_ends[t] for t in lasts]
    bounds = _Bounds(
        [0, *block_end[:-1]], block_end, [0, *seq_end[:-1]], seq_end, [0, *bit_end[:-1]], bit_end
    )
    return seq, layout, bounds


def _digests(seq: LetterSequence, bounds: _Bounds, hash_id: str) -> list[bytes]:
    """Each segment's content hash over its letters."""
    letters = seq.letters
    return [content_hash(letters[a:b], hash_id) for a, b in zip(bounds.seq_start, bounds.seq_end)]


def _digest_rows(digests: list[bytes]) -> np.ndarray:
    """Equal-length digests as rows of their big-endian bits."""
    joined = np.frombuffer(b"".join(digests), dtype=np.uint8)
    return np.unpackbits(joined.reshape(len(digests), -1), axis=1)


def _payload_places(bounds: _Bounds, width: int) -> np.ndarray:
    """The coded-bit offsets of each segment's first ``width`` bits, (S, width)."""
    return np.array(bounds.bit_start)[:, None] + np.arange(width)


def _embed_payloads(
    text: str,
    codebook: Codebook,
    laid_out: tuple[LetterSequence, _Layout, _Bounds],
    rows: np.ndarray,
    key: Optional[PermutationKey],
) -> EncodedDocument:
    """Embed row i of ``rows`` (S, P) at the start of segment i, which
    holds at least P bits, and zeros in the rest of each segment."""
    seq, layout, bounds = laid_out
    framed = np.zeros(bounds.bit_end[-1], dtype=np.uint8)
    framed[_payload_places(bounds, rows.shape[1])] = rows
    return EncodedDocument(
        text, _encode(seq, layout, _chunk(framed, layout.widths), codebook, key), codebook.font_id
    )


def sign_scheme1(
    text: str,
    codebook: Codebook,
    key: PermutationKey,
    config: SignatureConfig = SignatureConfig(),
) -> EncodedDocument:
    """Embed each segment's content hash into that segment under a private key."""
    laid_out = _layout(text, codebook, config, None)
    rows = _digest_rows(_digests(laid_out[0], laid_out[2], config.hash_id))
    return _embed_payloads(text, codebook, laid_out, rows, key)


def sign_scheme2(
    text: str,
    codebook: Codebook,
    signer: "ToyRsaProvider",
    config: SignatureConfig = SignatureConfig(),
) -> EncodedDocument:
    """Embed an asymmetric signature over each segment's hash, public codebook.

    The signer's bit strings are converted once, together; each must be
    ``signer.signature_bits`` long, else ContractViolation is raised."""
    laid_out = _layout(text, codebook, config, signer.signature_bits)
    signatures = [signer.sign(d) for d in _digests(laid_out[0], laid_out[2], config.hash_id)]
    if any(len(sig) != signer.signature_bits for sig in signatures):
        raise ContractViolation(f"a signature is not {signer.signature_bits} bits long")
    rows = _digits("".join(signatures), "signature").reshape(len(signatures), -1)
    return _embed_payloads(text, codebook, laid_out, rows, key=None)


def verify(
    encoded: EncodedDocument,
    codebook: Codebook,
    config: SignatureConfig,
    key: Optional[PermutationKey] = None,
    verifier: Optional["ToyRsaProvider"] = None,
) -> VerificationReport:
    """Recompute per-segment hashes and compare against the embedded values.

    Exactly one of ``key`` (scheme 1) and ``verifier`` (scheme 2) is passed.
    A glyph index stream longer than the letter count, or holding a value
    that is not an integer, raises ContractViolation, as extraction does,
    and a scheme-1 key that does not fit the codebook raises
    KeyMismatchError, all before any segment is decoded.  A segment whose
    blocks cannot be decoded, that reaches past the end of a shorter stream,
    or that holds a glyph index the key cannot map, is reported as an
    ``extraction-failed`` mismatch; the other segments are still checked.
    The first ``payload_bits`` decoded bits of every segment are gathered
    into one (S, payload_bits) array: scheme 1 compares it with the
    digests' bits in one pass, and scheme 2 reads it as one bit string.
    """
    if (key is None) == (verifier is None):
        raise ContractViolation("verify needs exactly one of key and verifier")
    payload_bits = config.digest_bits if verifier is None else verifier.signature_bits
    seq, layout, bounds = _layout(encoded.text, codebook, config, payload_bits)
    count = len(seq.letters)
    if len(encoded.glyph_indices) > count:
        raise ContractViolation("glyph index stream does not match the letter count")
    received = _received(encoded.glyph_indices, count)
    if key is not None:  # mapped once for every segment
        received = key.inverse_ids(seq.chars, seq.ids, received, codebook)
    payloads, _, failed = _decode(seq.capacities, layout, received, ends=bounds.block_end)
    embedded = _bits(payloads, layout.widths)[_payload_places(bounds, payload_bits)]
    digests = _digests(seq, bounds, config.hash_id)
    if verifier is None:
        ok = (embedded == _digest_rows(digests)).all(axis=1).tolist()
    else:
        signatures = _text(embedded.ravel())
        ok = [
            verifier.check(d, signatures[i * payload_bits : (i + 1) * payload_bits])
            for i, d in enumerate(digests)
        ]
    results = [
        SegmentResult(a, b, "mismatch", "extraction-failed")
        if failed_block is not None
        else SegmentResult(a, b, "match" if match else "mismatch")
        for a, b, failed_block, match in zip(bounds.seq_start, bounds.seq_end, failed, ok)
    ]
    return VerificationReport(tuple(results))


_PRIME_BITS = 32  # size of each toy RSA prime


def _next_prime(n: int) -> int:
    """The smallest prime above ``n``, by trial division up to its square root."""
    p = max(n + 1, 2)
    while any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


class ToyRsaProvider:
    """Deterministic textbook-RSA signature provider for tests and demos.

    Signs the digest reduced modulo a small modulus; nothing here is meant to
    be cryptographically strong, it only exercises the asymmetric-signature
    plumbing.  :meth:`generate` draws two ``_PRIME_BITS``-bit (32-bit) starting
    points from the seed and takes the next prime after each, found by trial
    division.  Real deployments plug in an actual cryptosystem behind the same
    sign/check surface.
    """

    def __init__(self, n: int, e: int, d: Optional[int] = None):
        self.n = n
        self.e = e
        self.d = d  # private exponent; None for a verify-only instance

    @classmethod
    def generate(cls, seed: int = 0) -> "ToyRsaProvider":
        rng = np.random.default_rng(stable_seed(seed, "rsa"))
        low, high = 1 << (_PRIME_BITS - 1), 1 << _PRIME_BITS
        p = _next_prime(int(rng.integers(low, high)))
        q = _next_prime(int(rng.integers(low, high)))
        while q == p:
            q = _next_prime(q + 2)
        n = p * q
        e = 65537
        d = pow(e, -1, (p - 1) * (q - 1))
        return cls(n, e, d)

    def public(self) -> "ToyRsaProvider":
        return ToyRsaProvider(self.n, self.e)

    @property
    def signature_bits(self) -> int:
        return self.n.bit_length()

    def sign(self, digest: bytes) -> str:
        """Signature over the digest, as a bit string of ``signature_bits``."""
        if self.d is None:
            raise SigningError("verify-only provider has no private exponent")
        m = int.from_bytes(digest, "big") % self.n
        s = pow(m, self.d, self.n)
        return format(s, f"0{self.signature_bits}b")

    def check(self, digest: bytes, signature_bits: str) -> bool:
        if len(signature_bits) != self.signature_bits:
            return False
        s = int(signature_bits, 2)
        if s >= self.n:
            return False
        m = int.from_bytes(digest, "big") % self.n
        return pow(s, self.e, self.n) == m
