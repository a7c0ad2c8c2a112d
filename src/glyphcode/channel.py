"""Noisy glyph recognition for vector documents.

Recognition of a clean vector outline is nearest-neighbor in outline space;
the simulated channel perturbs the true glyph's vertices with isotropic
Gaussian noise before recognition, standing in for rasterization and photo
degradation.  The probability vector over a letter's glyphs (normalized
inverse distance) is what maximum-likelihood decoding consumes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .codebook import CharacterEntry, Codebook
from .errors import ContractViolation
from .outline import GlyphOutline, OutlineStack
from .pipeline import EncodedDocument, _text_layout, letter_sequence
from .util import as_integer, seeded_streams, stable_seed

__all__ = [
    "ChannelParams",
    "RecognitionResult",
    "recognize_vector",
    "accuracy_oracle",
    "per_glyph_accuracy",
    "inject_errors",
    "simulate_document",
    "make_codebook_oracles",
    "DEFAULT_SIGMA",
]

# Calibrated so per-glyph accuracy on the shipped fixture codebook stays at or
# above 0.90 while leaving enough confusions to exercise error correction.
DEFAULT_SIGMA = 0.008

# observations drawn per position before the channel stops retrying and
# forces the outcome
_ATTEMPTS = 32


@dataclass(frozen=True)
class ChannelParams:
    sigma: float = DEFAULT_SIGMA
    seed: int = 0
    trials: int = 200

    def __post_init__(self):
        if isinstance(self.sigma, bool) or not isinstance(
            self.sigma, (int, float, np.integer, np.floating)
        ):
            raise ContractViolation(f"sigma must be a real number, not {type(self.sigma).__name__}")
        # an int past the float range compares below inf but cannot scale noise
        if not (0.0 <= self.sigma <= sys.float_info.max):
            raise ContractViolation("sigma must be finite and non-negative")
        as_integer(self.seed, "seed")
        if as_integer(self.trials, "trials") < 1:
            raise ContractViolation("trials must be positive")


@dataclass(frozen=True)
class RecognitionResult:
    probabilities: np.ndarray
    argmax_index: int
    true_index: int | None = None


def _probabilities(distances: np.ndarray) -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    exact = d <= 0.0
    if exact.any():
        probs = np.zeros_like(d)
        probs[int(np.argmax(exact))] = 1.0  # smallest index on ties
        return probs
    probs = 1.0 / d
    return probs / probs.sum()


def recognize_vector(f: GlyphOutline, entry: CharacterEntry) -> RecognitionResult:
    """Recognize an observed outline as one of a letter's perturbed glyphs.

    The glyph with minimum outline distance wins (smallest index on exact
    ties); probabilities are the normalized inverse distances, with an exact
    match taking the full mass.
    """
    d = entry.outline_stack.distances(f)
    return RecognitionResult(_probabilities(d), int(np.argmin(d)))


def _observations(
    vertices: np.ndarray, sigma: float, streams: Iterator[np.random.Generator], count: int
) -> np.ndarray:
    """An outline seen ``count`` times through the noise: a (count, V, 2)
    array whose row t adds ``sigma`` times a standard normal draw from the
    next of ``streams`` to ``vertices``.  With streams from
    :func:`util.seeded_streams`, row t equals ``vertices +
    default_rng(seed).normal(0.0, sigma, V x 2)`` for its seed, bit for bit,
    without building a generator per seed.  At sigma 0 no stream is read."""
    shape = vertices.shape
    if sigma == 0.0:
        return np.broadcast_to(vertices, (count, *shape))
    observed = np.empty((count, *shape))
    # zip asks the rows first, so exactly ``count`` streams are taken
    for row, stream in zip(observed, streams):
        stream.standard_normal(out=row)
    observed *= sigma
    observed += vertices
    if not np.isfinite(observed).all():
        raise ContractViolation("outline vertices must be finite")
    return observed


def _observed_distances(
    true_index: int,
    entry: CharacterEntry,
    sigma: float,
    streams: Iterator[np.random.Generator],
    count: int,
) -> np.ndarray:
    """Distances of the true glyph, observed once per each of the next
    ``count`` streams, to each glyph: a (count, capacity) array."""
    if not (0 <= true_index < entry.capacity):
        raise ContractViolation("true_index out of range")
    observed = _observations(entry.glyphs[true_index].outline.vertices, sigma, streams, count)
    return entry.outline_stack.batch_distances(observed)


def per_glyph_accuracy(
    outlines: Sequence[GlyphOutline], params: ChannelParams
) -> np.ndarray:
    """Empirical per-glyph classification accuracy within a glyph subset."""
    if len(outlines) < 2:
        raise ContractViolation("need at least two glyphs")
    stack = OutlineStack(outlines)
    # content-derived, so renumbering glyph ids does not change the noise
    subset_key = stable_seed(*(o.vertices.tobytes() for o in outlines))
    per = max(1, params.trials // len(outlines))
    # one stream per trial, glyph by glyph; at sigma 0 none is read or seeded
    streams = seeded_streams(
        stable_seed(params.seed, "oracle", subset_key, which, t)
        for which in range(len(outlines))
        for t in range(per)
    )
    accs = np.empty(len(outlines))
    for which, outline in enumerate(outlines):
        observed = _observations(outline.vertices, params.sigma, streams, per)
        hits = np.argmin(stack.batch_distances(observed), axis=1) == which
        accs[which] = int(hits.sum()) / per
    return accs


def accuracy_oracle(
    outlines: Sequence[GlyphOutline], params: ChannelParams
) -> float:
    """Mean classification accuracy over a glyph subset (the CNN surrogate)."""
    return float(per_glyph_accuracy(outlines, params).mean())


def make_codebook_oracles(params: ChannelParams):
    """Oracle pair with the signature :func:`codebook.build_codebook` expects."""

    def oracle(character: str, ids, outlines) -> float:
        return accuracy_oracle(outlines, params)

    def per_glyph(character: str, ids, outlines) -> np.ndarray:
        return per_glyph_accuracy(outlines, params)

    return oracle, per_glyph


@lru_cache(maxsize=64)
def _attempt_seeds(position: int) -> tuple[int, ...]:
    """The trial seeds of a codeword position's observations, attempt 0 to
    31; they depend on the position alone, so every block shares them."""
    return tuple(stable_seed("inject", position, attempt) for attempt in range(_ATTEMPTS))


def inject_errors(
    codeword: Sequence[int],
    entries: Sequence[CharacterEntry],
    count: int,
    params: ChannelParams,
) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Corrupt exactly ``count`` positions of a codeword through the channel.

    Error positions are drawn without replacement.  Each position is observed
    once; if that observation does not give the wanted outcome (a misread at
    an error position, the true glyph elsewhere), up to 31 retries are drawn,
    each from its own seed, and recognized as one batch, and the first that
    does is kept.  If none does, an error position is forced to the
    second-most-likely glyph of the first observation and any other position
    keeps its true glyph with certainty.  The returned likelihood table comes
    from the same simulated observations.  Every first observation is seeded
    in one batch of :func:`util.seeded_streams`, and every retry in a second.
    """
    n = len(codeword)
    if len(entries) != n:
        raise ContractViolation("entry list length does not match codeword")
    if not (0 <= count <= n):
        raise ContractViolation("count must be in [0, n]")
    rng = np.random.default_rng(stable_seed(params.seed, "positions", tuple(codeword)))
    error_at = set(rng.choice(n, size=count, replace=False).tolist()) if count else set()
    attempts = [_attempt_seeds(j) for j in range(n)]
    # the first observation of every position, then the retries of every
    # position whose first one missed, each from one batch of streams;
    # without noise every retry would repeat the first observation, so none
    # is drawn and the retry streams are never seeded
    firsts = seeded_streams(
        stable_seed(params.seed, "obs", true, trials[0]) for true, trials in zip(codeword, attempts)
    )
    first = [
        _observed_distances(true, entry, params.sigma, firsts, 1)[0]
        for true, entry in zip(codeword, entries)
    ]
    missed = [
        (int(np.argmin(d)) != true) != (j in error_at)
        for j, (d, true) in enumerate(zip(first, codeword))
    ]
    retries = seeded_streams(
        stable_seed(params.seed, "obs", codeword[j], t)
        for j in range(n)
        if missed[j]
        for t in attempts[j][1:]
    )
    vector: list[int] = []
    table: list[np.ndarray] = []
    for j, (true, entry) in enumerate(zip(codeword, entries)):
        want_error = j in error_at
        kept = None if missed[j] else first[j]
        if missed[j] and params.sigma > 0.0:
            d = _observed_distances(true, entry, params.sigma, retries, _ATTEMPTS - 1)
            (hits,) = np.nonzero((np.argmin(d, axis=1) != true) == want_error)
            if hits.size:
                kept = d[hits[0]]
        if kept is not None:
            vector.append(int(np.argmin(kept)))
            table.append(_probabilities(kept))
        elif want_error:
            # noise too small to confuse: force the runner-up glyph
            probs = _probabilities(first[j])
            order = np.argsort(-probs, kind="stable")
            vector.append(int(order[1]) if int(order[0]) == true else int(order[0]))
            table.append(probs)
        else:
            probs = np.zeros(entry.capacity)
            probs[true] = 1.0
            vector.append(true)
            table.append(probs)
    return tuple(vector), table


def simulate_document(
    doc: EncodedDocument,
    codebook: Codebook,
    errors: int,
    block_params: Iterable[ChannelParams],
    n: int = 5,
    k: int = 3,
) -> tuple[EncodedDocument, list[np.ndarray]]:
    """Pass a document through the channel: block t gets ``errors`` misreads
    from :func:`inject_errors` under the t-th of ``block_params``, and blocks
    past its end keep their glyphs.  Returns the noisy document and one
    likelihood row per letter, uniform outside the corrupted blocks."""
    seq = letter_sequence(doc.text, codebook)
    if len(doc.glyph_indices) != len(seq.letters):
        raise ContractViolation("glyph index stream does not match the letter count")
    if not seq.letters:
        raise ContractViolation("letter sequence is empty")
    indices = list(doc.glyph_indices)
    rows = [np.full(c, 1.0 / c) for c in seq.capacities]
    for members, params in zip(_text_layout(seq.capacities, n, k).members.tolist(), block_params):
        vector = [indices[i] for i in members]
        entries = [codebook.entry(seq.letters[i]) for i in members]
        observed, table = inject_errors(vector, entries, errors, params)
        for i, v, row in zip(members, observed, table):
            indices[i] = v
            rows[i] = row
    return EncodedDocument(doc.text, tuple(indices), doc.codebook_id), rows
