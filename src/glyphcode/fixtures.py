"""Deterministic synthetic fixtures: blob glyph geometry, chain-perturbed
codebooks, English letter frequencies, and simulation helpers.

Real font manifolds are out of scope; the stand-in glyph for a character is a
smooth blob (a cosine-perturbed circle) and its perturbed variants sit on a
straight chain in outline space, base + j * DEFAULT_STEP * D for a unit
direction D. The chain makes confusions adjacent-only under isotropic noise,
which is the regime the error-correction layer is designed for, while every
constant stays reproducible from a seed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .codebook import (
    CharacterEntry,
    Codebook,
    GlyphCandidate,
    ManifoldPoint,
    PerturbedGlyphEntry,
)
from .crc import ModuliSet, encode_phi, hamming_decode, ml_decode
from .errors import ContractViolation
from .outline import GlyphOutline
from .util import stable_seed

__all__ = [
    "ENGLISH_FREQUENCIES",
    "CHAIN_CAPACITIES",
    "DEFAULT_STEP",
    "blob_outline",
    "chain_outlines",
    "chain_entry",
    "chain_candidates",
    "fixture_codebook",
    "channel_codebook",
    "signature_codebook",
    "redundant_block_entries",
    "random_text",
    "bench_text",
    "block_success_empirical",
]

# Relative English letter frequencies (percent), a standard corpus table.
ENGLISH_FREQUENCIES: dict[str, float] = {
    "a": 8.167, "b": 1.492, "c": 2.782, "d": 4.253, "e": 12.702,
    "f": 2.228, "g": 2.015, "h": 6.094, "i": 6.966, "j": 0.153,
    "k": 0.772, "l": 4.025, "m": 2.406, "n": 6.749, "o": 7.507,
    "p": 1.929, "q": 0.095, "r": 5.987, "s": 6.327, "t": 9.056,
    "u": 2.758, "v": 0.978, "w": 2.360, "x": 0.150, "y": 1.974,
    "z": 0.074,
}

# Glyph counts per lowercase letter, calibrated so Monte-Carlo capacity under
# ENGLISH_FREQUENCIES lands at 1.77 bits per letter (the few distinct levels
# keep the coprime-search cache small).
CHAIN_CAPACITIES: dict[str, int] = {
    "a": 13, "b": 8, "c": 11, "d": 11, "e": 13,
    "f": 9, "g": 9, "h": 11, "i": 13, "j": 5,
    "k": 8, "l": 11, "m": 9, "n": 13, "o": 13,
    "p": 8, "q": 5, "r": 11, "s": 11, "t": 13,
    "u": 9, "v": 8, "w": 9, "x": 5, "y": 9,
    "z": 5,
}

# Chain spacing between adjacent perturbed glyphs in outline space; paired
# with the channel's default sigma this keeps per-glyph accuracy above 0.9.
DEFAULT_STEP = 0.085


def blob_outline(character: str, vertex_count: int, seed: int) -> GlyphOutline:
    """Smooth closed blob for a character: r(t) = 1 + sum a_k cos(k t + phi_k)."""
    rng = np.random.default_rng(stable_seed(seed, "blob", character))
    t = np.linspace(0.0, 2.0 * np.pi, vertex_count, endpoint=False)
    r = np.ones_like(t)
    for k in range(2, 6):
        a = rng.uniform(-0.12, 0.12)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        r += a * np.cos(k * t + phi)
    return GlyphOutline(np.column_stack([r * np.cos(t), r * np.sin(t)]))


def _chain_direction(base: GlyphOutline, seed: int) -> np.ndarray:
    """Unit perturbation direction that leaves the bounding box untouched.

    Recognition rescales candidates into the observed bounding box, so the
    extreme vertices along each axis stay pinned to keep that rescale from
    cancelling the chain displacement.
    """
    v = base.vertices
    rng = np.random.default_rng(stable_seed(seed, "dir"))
    d = rng.normal(size=v.shape)
    pinned = {
        int(np.argmin(v[:, 0])), int(np.argmax(v[:, 0])),
        int(np.argmin(v[:, 1])), int(np.argmax(v[:, 1])),
    }
    d[sorted(pinned)] = 0.0
    norm = float(np.linalg.norm(d))
    d /= norm
    return d


def chain_outlines(
    character: str,
    count: int,
    vertex_count: int = 64,
    seed: int = 0,
    offsets: Optional[Sequence[float]] = None,
) -> list[GlyphOutline]:
    """Perturbed variants base + offset_j * DEFAULT_STEP * D; offsets default
    to 0..count-1."""
    base = blob_outline(character, vertex_count, seed)
    d = _chain_direction(base, stable_seed(seed, "chain", character))
    if offsets is None:
        offsets = list(range(count))
    return [GlyphOutline(base.vertices + o * DEFAULT_STEP * d) for o in offsets]


def chain_entry(
    character: str,
    capacity: int,
    vertex_count: int = 64,
    seed: int = 0,
) -> CharacterEntry:
    outlines = chain_outlines(character, capacity, vertex_count, seed)
    glyphs = tuple(
        PerturbedGlyphEntry(
            index=j,
            point=ManifoldPoint(j * DEFAULT_STEP, 0.0),
            outline=o,
            accuracy=1.0,
        )
        for j, o in enumerate(outlines)
    )
    return CharacterEntry(character=character, original=glyphs[0], glyphs=glyphs)


def chain_candidates(
    character: str,
    offsets: Sequence[float],
    vertex_count: int = 64,
    seed: int = 0,
) -> list[GlyphCandidate]:
    """Codebook-construction candidates at arbitrary chain offsets.

    Offsets closer than about one step are confusable under the default
    channel, which is what the confusion-test loop is supposed to prune.
    """
    outlines = chain_outlines(character, len(offsets), vertex_count, seed, offsets)
    return [
        GlyphCandidate(glyph_id=i, point=ManifoldPoint(o * DEFAULT_STEP, 0.0), outline=out)
        for i, (o, out) in enumerate(zip(offsets, outlines))
    ]


def fixture_codebook(
    capacities: dict[str, int],
    vertex_count: int = 64,
    seed: int = 0,
    font_id: str = "chain-fixture",
) -> Codebook:
    entries = {ch: chain_entry(ch, cap, vertex_count, seed) for ch, cap in capacities.items()}
    return Codebook(font_id=font_id, entries=entries, resample_count=vertex_count)


def channel_codebook(seed: int = 0) -> Codebook:
    """The calibrated lowercase codebook used across tests and demos."""
    return fixture_codebook(CHAIN_CAPACITIES, seed=seed, font_id="chain-lowercase")


def signature_codebook() -> Codebook:
    """Uniform-capacity codebook for the signature workflows.

    Every letter gets the same glyph count, so replacing one character with
    another never changes the block layout and tampering stays localized to
    the segment whose content changed.
    """
    caps = {ch: 11 for ch in ENGLISH_FREQUENCIES}
    return fixture_codebook(caps, font_id="chain-uniform11")


def redundant_block_entries() -> tuple[list[CharacterEntry], ModuliSet]:
    """A five-letter block with capacities (2, 3, 5, 29, 31).

    M stays 2*3*5 = 30 while the two huge redundancy moduli keep almost every
    two-error pattern uniquely decodable, the regime where likelihood-based
    tie-breaking actually reaches the advertised two-error correction.
    """
    caps = (2, 3, 5, 29, 31)
    letters = ("v", "w", "x", "y", "z")
    entries = [chain_entry(ch, cap) for ch, cap in zip(letters, caps)]
    return entries, ModuliSet(caps, 3)


def random_text(
    letters: int,
    seed: int = 0,
    frequencies: Optional[dict[str, float]] = None,
) -> str:
    """English-frequency random text with a space after every five letters."""
    freqs = ENGLISH_FREQUENCIES if frequencies is None else frequencies
    chars = sorted(freqs)
    w = np.array([freqs[c] for c in chars], dtype=float)
    w /= w.sum()
    rng = np.random.default_rng(stable_seed(seed, "text"))
    picks = rng.choice(len(chars), size=letters, p=w)
    out = []
    for i, p in enumerate(picks):
        if i and i % 5 == 0:
            out.append(" ")
        out.append(chars[p])
    return "".join(out)


def bench_text(seed: int = 0) -> str:
    """The 176-letter timing fixture."""
    return random_text(176, seed=stable_seed(seed, "bench"))


def _synthetic_row(p: int, true: int, observed: int, rng: np.random.Generator) -> np.ndarray:
    """Recognition-likelihood row for a misread: the observed glyph ranks
    first and the true glyph second, mirroring adjacent-chain confusions."""
    row = np.ones(p)
    row[true] = 2.0
    row[observed] = 3.0
    row += rng.uniform(0.0, 0.1, size=p)  # break exact ties between the rest
    return row / row.sum()


def block_success_empirical(
    p1: float,
    moduli: ModuliSet,
    ml: bool = False,
    trials: int = 10_000,
) -> float:
    """Monte-Carlo block success rate at per-letter accuracy p1.

    Each residue independently flips to a uniformly random wrong value with
    probability 1 - p1; decoding is plain Hamming or likelihood-resolved.
    """
    if not (0.0 < p1 <= 1.0):
        raise ContractViolation("p1 must be in (0, 1]")
    if trials < 1:
        raise ContractViolation("trials must be positive")
    rng = np.random.default_rng(stable_seed(0, "curve", moduli.p, ml))
    M = moduli.payload_bound
    hits = 0
    for _ in range(trials):
        m = int(rng.integers(M))
        cw = encode_phi(m, moduli)
        vector = []
        rows = []
        for j, (c, p) in enumerate(zip(cw, moduli.p)):
            if rng.random() < p1 or p == 1:
                vector.append(c)
                row = np.ones(p)
                row[c] = 3.0
                rows.append(row / row.sum())
            else:
                wrong = int(rng.integers(p - 1))
                wrong += wrong >= c
                vector.append(wrong)
                rows.append(_synthetic_row(p, c, wrong, rng))
        if ml:
            outcome = ml_decode(vector, moduli, g=rows)
        else:
            outcome = hamming_decode(vector, moduli)
        hits += outcome.m == m
    return hits / trials
