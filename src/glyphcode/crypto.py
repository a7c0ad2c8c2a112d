"""Permutation-key encryption and segment-level document signatures.

The symmetric secret is, per character, a permutation of its glyph list:
embedding stores integer i as the glyph at the key's position i, so extraction
without the key sees uniformly scrambled integers.  Signatures split the
document into segments of at least ``segment_min_letters`` coded letters and
embed each segment's content hash into that segment, either under a private
permuted codebook (scheme 1) or as an asymmetric signature over the hash
embedded with the public codebook (scheme 2).  Verification recomputes the
hashes and localizes tampering to the segment level.

Signing and verification reuse the message pipeline's block encoder and
decoder.  Each call builds the letter sequence and the block partition once
and slices them per segment, so the cost is linear in the document length.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import sympy

from .codebook import Codebook
from .errors import ContractViolation, KeyMismatchError, PartialDecodeError, SigningError
from .pipeline import (
    Block,
    EncodedDocument,
    LetterSequence,
    _capacities,
    _decode_blocks,
    _encode_blocks,
    chunk_message,
    letter_sequence,
    partition_blocks,
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
    scheme: int = 1
    segment_min_letters: int = 80
    n: int = 5
    k: int = 3

    def __post_init__(self):
        if self.scheme not in (1, 2):
            raise ContractViolation("scheme must be 1 or 2")
        if self.segment_min_letters < 1:
            raise ContractViolation("segment_min_letters must be positive")
        hashlib.new(self.hash_id)  # fail early on unknown algorithms

    @property
    def digest_bits(self) -> int:
        return hashlib.new(self.hash_id).digest_size * 8


@dataclass(frozen=True)
class Segment:
    index: int
    blocks: tuple[Block, ...]
    seq_start: int  # letter-sequence index range covered, [start, end)
    seq_end: int


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
) -> tuple[LetterSequence, list[Block], list[Segment]]:
    """Letter sequence, block partition and segments, each computed once."""
    seq = letter_sequence(text, codebook)
    blocks = partition_blocks(seq, config.n, config.k)
    if not blocks:
        raise SigningError("document has zero complete blocks")
    need = config.digest_bits if payload_bits is None else payload_bits
    segments: list[Segment] = []
    cur: list[Block] = []
    start = bits = 0
    for block in blocks:
        cur.append(block)
        # blocks cover consecutive letter ranges, and a block's last member is
        # the last letter it pulled in, so it ends the newest block
        end = block.member_indices[-1] + 1
        bits += block.bit_width
        if end - start >= config.segment_min_letters and bits >= need:
            segments.append(Segment(len(segments), tuple(cur), start, end))
            cur, start, bits = [], end, 0
    if not segments:
        raise SigningError(f"segment 0 holds {bits} bits, payload needs {need}")
    last = segments.pop()
    segments.append(
        Segment(last.index, last.blocks + tuple(cur), last.seq_start, len(seq.letters))
    )
    return seq, blocks, segments


def _segment_digest(seq: LetterSequence, segment: Segment, hash_id: str) -> bytes:
    return content_hash("".join(seq.letters[segment.seq_start : segment.seq_end]), hash_id)


def _embed_payloads(
    text: str,
    codebook: Codebook,
    layout: tuple[LetterSequence, list[Block], list[Segment]],
    payloads: Sequence[str],
    key: Optional[PermutationKey],
) -> EncodedDocument:
    """Embed one payload per segment, zero-padded to the segment's width."""
    seq, blocks, segments = layout
    chunks = [m for s, bits in zip(segments, payloads) for m in chunk_message(bits, s.blocks)]
    indices = _encode_blocks(seq, blocks, chunks, codebook, key)
    return EncodedDocument(text, indices, codebook.font_id)


def sign_scheme1(
    text: str,
    codebook: Codebook,
    key: PermutationKey,
    config: SignatureConfig = SignatureConfig(),
) -> EncodedDocument:
    """Embed each segment's content hash into that segment under a private key."""
    layout = _layout(text, codebook, config, None)
    seq, _, segments = layout
    payloads = [bits_from_bytes(_segment_digest(seq, s, config.hash_id)) for s in segments]
    return _embed_payloads(text, codebook, layout, payloads, key)


def sign_scheme2(
    text: str,
    codebook: Codebook,
    signer: "ToyRsaProvider",
    config: SignatureConfig = SignatureConfig(scheme=2),
) -> EncodedDocument:
    """Embed an asymmetric signature over each segment's hash, public codebook."""
    layout = _layout(text, codebook, config, signer.signature_bits)
    seq, _, segments = layout
    payloads = [signer.sign(_segment_digest(seq, s, config.hash_id)) for s in segments]
    return _embed_payloads(text, codebook, layout, payloads, key=None)


def verify(
    encoded: EncodedDocument,
    codebook: Codebook,
    config: SignatureConfig,
    key: Optional[PermutationKey] = None,
    verifier: Optional["ToyRsaProvider"] = None,
) -> VerificationReport:
    """Recompute per-segment hashes and compare against the embedded values.

    A scheme-1 key that does not fit the codebook raises KeyMismatchError
    before any segment is decoded.  A segment whose blocks cannot be decoded,
    or that holds a glyph index the key cannot map, is reported as an
    ``extraction-failed`` mismatch; the other segments are still checked.
    """
    if config.scheme == 1 and key is None:
        raise ContractViolation("scheme 1 verification needs the permutation key")
    if config.scheme == 2 and verifier is None:
        raise ContractViolation("scheme 2 verification needs the public key")
    payload_bits = (
        config.digest_bits if config.scheme == 1 else verifier.signature_bits
    )
    seq, _, segments = _layout(encoded.text, codebook, config, payload_bits)
    values = encoded.glyph_indices
    if config.scheme == 1:
        # mapped once for every segment
        values = key.inverse_letters(seq.letters, values, _capacities(codebook))
    results: list[SegmentResult] = []
    for s in segments:
        digest = _segment_digest(seq, s, config.hash_id)
        try:
            bits, _ = _decode_blocks(seq, s.blocks, values)
        except PartialDecodeError:
            results.append(
                SegmentResult(s.seq_start, s.seq_end, "mismatch", "extraction-failed")
            )
            continue
        embedded = bits[:payload_bits]
        if config.scheme == 1:
            ok = embedded == bits_from_bytes(digest)[: len(embedded)]
        else:
            ok = verifier.check(digest, embedded)
        results.append(
            SegmentResult(s.seq_start, s.seq_end, "match" if ok else "mismatch")
        )
    return VerificationReport(tuple(results))


class ToyRsaProvider:
    """Deterministic textbook-RSA signature provider for tests and demos.

    Signs the digest reduced modulo a small modulus; nothing here is meant to
    be cryptographically strong, it only exercises the asymmetric-signature
    plumbing.  Real deployments plug in an actual cryptosystem behind the same
    sign/check surface.
    """

    def __init__(self, n: int, e: int, d: Optional[int] = None):
        self.n = n
        self.e = e
        self.d = d  # private exponent; None for a verify-only instance

    @classmethod
    def generate(cls, seed: int = 0, prime_bits: int = 32) -> "ToyRsaProvider":
        rng = np.random.default_rng(stable_seed(seed, "rsa"))
        p = sympy.nextprime(int(rng.integers(1 << (prime_bits - 1), 1 << prime_bits)))
        q = sympy.nextprime(int(rng.integers(1 << (prime_bits - 1), 1 << prime_bits)))
        while q == p:
            q = sympy.nextprime(q + 2)
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
