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

Signing and verification reuse the message pipeline's columnar block layout
and its array codec.  Each call builds the letter sequence and the layout
once.  A :class:`Segment` is a range of blocks, of letters and of coded bits;
each segment's end is found by a binary search over the blocks' running
letter and bit counts.  The whole document is encoded or decoded in one pass
that is then sliced by segment, so the cost is linear in the document length.
A segment's decode stops at its first block that fails, as a per-segment
decode would.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .codebook import Codebook
from .errors import ContractViolation, KeyMismatchError, SigningError
from .pipeline import (
    EncodedDocument,
    LetterSequence,
    _bits,
    _build_layout,
    _capacities,
    _chunk,
    _decode,
    _encode,
    _Layout,
    letter_sequence,
)
from .util import bits_from_bytes, stable_seed

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


@dataclass(frozen=True)
class PermutationKey:
    """Per-character bijection over glyph indices.

    Integer i of character ``ch`` is stored as glyph ``perms[ch][i]``.  A key
    fits a codebook when it holds, for every codebook character, a
    permutation of exactly that character's glyph count; characters the
    codebook lacks are allowed.  The sequence maps check the fit first, so a
    key that does not fit raises KeyMismatchError before any letter is
    mapped.  An inverse table (glyph index -> integer) and the permutation as
    an index array for likelihood rows are built once, when the key is made,
    so ``perms`` must not change after that.
    """

    key_id: str
    perms: dict[str, tuple[int, ...]]

    def __post_init__(self):
        inverse, rows = {}, {}
        for ch, perm in self.perms.items():
            if sorted(perm) != list(range(len(perm))):
                raise ContractViolation(f"mapping for {ch!r} is not a permutation")
            inverse[ch] = {g: i for i, g in enumerate(perm)}
            rows[ch] = np.asarray(perm, dtype=np.intp)
        object.__setattr__(self, "_inverse", inverse)
        object.__setattr__(self, "_rows", rows)

    def _perm(self, character: str) -> tuple[int, ...]:
        try:
            return self.perms[character]
        except KeyError:
            raise KeyMismatchError(f"key has no entry for character {character!r}")

    def _check_fits(self, widths: dict[str, int]) -> None:
        """Raise KeyMismatchError unless the key permutes exactly
        ``widths[ch]`` glyphs for every character ``ch`` of ``widths``."""
        for ch, width in widths.items():
            perm = self._perm(ch)
            if len(perm) != width:
                raise KeyMismatchError(
                    f"key permutes {len(perm)} glyphs for character {ch!r}, "
                    f"which has capacity {width}"
                )

    def forward(self, character: str, value: int) -> int:
        perm = self._perm(character)
        if not (0 <= value < len(perm)):
            raise KeyMismatchError(
                f"integer {value} out of range for character {character!r}"
            )
        return perm[value]

    def inverse(self, character: str, value: int) -> int:
        perm = self._perm(character)
        if not (0 <= value < len(perm)):
            raise KeyMismatchError(
                f"glyph index {value} out of range for character {character!r}"
            )
        return self._inverse[character][value]

    def forward_letters(
        self, letters: Sequence[str], values: Sequence[int], widths: dict[str, int]
    ) -> list[int]:
        """:meth:`forward` over a letter sequence of ``widths``' characters,
        once the key is checked to fit ``widths``; each value must be below
        its letter's width."""
        self._check_fits(widths)
        perms = self.perms
        return [perms[ch][v] for ch, v in zip(letters, values)]

    def inverse_letters(
        self, letters: Sequence[str], values: Sequence[int], widths: dict[str, int]
    ) -> list[Optional[int]]:
        """:meth:`inverse` over a letter sequence of ``widths``' characters,
        once the key is checked to fit ``widths``, with None at each letter
        whose glyph index is out of range."""
        self._check_fits(widths)
        table = self._inverse
        return [table[ch].get(v) for ch, v in zip(letters, values)]

    def inverse_row(self, character: str, row: np.ndarray) -> np.ndarray:
        """Reorder a per-glyph likelihood row into embedded-integer order."""
        perm = self._perm(character)
        row = np.asarray(row, dtype=float)
        if row.shape != (len(perm),):
            raise KeyMismatchError(
                f"likelihood row length {row.shape} does not match key for {character!r}"
            )
        return row[self._rows[character]]


def keygen(codebook: Codebook, seed: int = 0, key_id: Optional[str] = None) -> PermutationKey:
    """Seeded Fisher-Yates permutation per character; reproducible."""
    perms: dict[str, tuple[int, ...]] = {}
    for ch in codebook.characters():
        n = codebook.capacity(ch)
        rng = np.random.default_rng(stable_seed(seed, "perm", ch))
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        perms[ch] = tuple(perm)
    return PermutationKey(key_id or f"key-{seed}", perms)


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
    return _layout(text, codebook, config, payload_bits)[2]


def _layout(
    text: str,
    codebook: Codebook,
    config: SignatureConfig,
    payload_bits: Optional[int],
) -> tuple[LetterSequence, _Layout, list[Segment]]:
    """Letter sequence, block layout and segments, each computed once.

    A segment closes at its first block where it spans at least
    ``segment_min_letters`` letters and holds the payload.  Both counts grow
    with every block, so that block is the later of two binary searches.
    """
    seq = letter_sequence(text, codebook)
    if not seq.letters:
        raise ContractViolation("letter sequence is empty")
    layout = _build_layout(seq.capacities, config.n, config.k)
    if not len(layout.widths):
        raise SigningError("document has zero complete blocks")
    need = config.digest_bits if payload_bits is None else payload_bits
    # blocks cover consecutive letter ranges, and a block's last member is
    # the last letter it pulled in, so it ends the newest block
    letter_ends = (layout.members[:, -1] + 1).tolist()
    bit_ends = np.cumsum(layout.widths).tolist()
    segments: list[Segment] = []
    first = start = held = 0
    while (
        t := max(
            first,
            bisect_left(letter_ends, start + config.segment_min_letters),
            bisect_left(bit_ends, held + need),
        )
    ) < len(letter_ends):
        segments.append(Segment(first, t + 1, start, letter_ends[t], held, bit_ends[t]))
        first, start, held = t + 1, letter_ends[t], bit_ends[t]
    if not segments:
        raise SigningError(f"segment 0 holds {bit_ends[-1]} bits, payload needs {need}")
    segments[-1] = replace(
        segments[-1], block_end=len(letter_ends), seq_end=len(seq.letters), bit_end=bit_ends[-1]
    )
    return seq, layout, segments


def _segment_digest(seq: LetterSequence, segment: Segment, hash_id: str) -> bytes:
    return content_hash("".join(seq.letters[segment.seq_start : segment.seq_end]), hash_id)


def _embed_payloads(
    text: str,
    codebook: Codebook,
    laid_out: tuple[LetterSequence, _Layout, list[Segment]],
    payloads: Sequence[str],
    key: Optional[PermutationKey],
) -> EncodedDocument:
    """Embed one payload per segment, zero-padded to the segment's width."""
    seq, layout, segments = laid_out
    framed = []
    for s, bits in zip(segments, payloads):
        if len(bits) > s.bit_end - s.bit_start:
            raise ContractViolation("framed message exceeds total block width")
        framed.append(bits.ljust(s.bit_end - s.bit_start, "0"))
    chunks = _chunk("".join(framed), layout.widths)
    return EncodedDocument(text, _encode(seq, layout, chunks, codebook, key), codebook.font_id)


def sign_scheme1(
    text: str,
    codebook: Codebook,
    key: PermutationKey,
    config: SignatureConfig = SignatureConfig(),
) -> EncodedDocument:
    """Embed each segment's content hash into that segment under a private key."""
    laid_out = _layout(text, codebook, config, None)
    seq, _, segments = laid_out
    payloads = [bits_from_bytes(_segment_digest(seq, s, config.hash_id)) for s in segments]
    return _embed_payloads(text, codebook, laid_out, payloads, key)


def sign_scheme2(
    text: str,
    codebook: Codebook,
    signer: "ToyRsaProvider",
    config: SignatureConfig = SignatureConfig(),
) -> EncodedDocument:
    """Embed an asymmetric signature over each segment's hash, public codebook."""
    laid_out = _layout(text, codebook, config, signer.signature_bits)
    seq, _, segments = laid_out
    payloads = [signer.sign(_segment_digest(seq, s, config.hash_id)) for s in segments]
    return _embed_payloads(text, codebook, laid_out, payloads, key=None)


def verify(
    encoded: EncodedDocument,
    codebook: Codebook,
    config: SignatureConfig,
    key: Optional[PermutationKey] = None,
    verifier: Optional["ToyRsaProvider"] = None,
) -> VerificationReport:
    """Recompute per-segment hashes and compare against the embedded values.

    Exactly one of ``key`` (scheme 1) and ``verifier`` (scheme 2) is passed.
    A glyph index stream longer than the letter count raises
    ContractViolation, as extraction does, and a scheme-1 key that does not
    fit the codebook raises KeyMismatchError, both before any segment is
    decoded.  A segment whose blocks cannot be decoded, that reaches past the
    end of a shorter stream, or that holds a glyph index the key cannot map,
    is reported as an ``extraction-failed`` mismatch; the other segments are
    still checked.
    """
    if (key is None) == (verifier is None):
        raise ContractViolation("verify needs exactly one of key and verifier")
    payload_bits = config.digest_bits if verifier is None else verifier.signature_bits
    seq, layout, segments = _layout(encoded.text, codebook, config, payload_bits)
    values = encoded.glyph_indices
    if len(values) > len(seq.letters):
        raise ContractViolation("glyph index stream does not match the letter count")
    if key is not None:
        # mapped once for every segment
        values = key.inverse_letters(seq.letters, values, _capacities(codebook))
    payloads, _, failed = _decode(seq, layout, values, ends=[s.block_end for s in segments])
    bits = _bits(payloads, layout.widths)
    results: list[SegmentResult] = []
    for s, failed_block in zip(segments, failed):
        if failed_block is not None:
            results.append(
                SegmentResult(s.seq_start, s.seq_end, "mismatch", "extraction-failed")
            )
            continue
        digest = _segment_digest(seq, s, config.hash_id)
        embedded = bits[s.bit_start : s.bit_end][:payload_bits]
        if verifier is None:
            ok = embedded == bits_from_bytes(digest)[: len(embedded)]
        else:
            ok = verifier.check(digest, embedded)
        results.append(
            SegmentResult(s.seq_start, s.seq_end, "match" if ok else "mismatch")
        )
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
