"""Noisy glyph recognition for vector documents.

Recognition of a clean vector outline is nearest-neighbor in outline space;
the simulated channel perturbs the true glyph's vertices with isotropic
Gaussian noise before recognition, standing in for rasterization and photo
degradation.  The probability vector over a letter's glyphs (normalized
inverse distance) is what maximum-likelihood decoding consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .codebook import CharacterEntry, Codebook
from .errors import ContractViolation
from .outline import GlyphOutline, OutlineStack
from .pipeline import EncodedDocument, _text_layout, letter_sequence
from .util import stable_seed

__all__ = [
    "ChannelParams",
    "RecognitionResult",
    "recognize_vector",
    "simulate_recognition",
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
        if not (0.0 <= self.sigma < np.inf):
            raise ContractViolation("sigma must be finite and non-negative")
        if self.trials < 1:
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


def _observations(vertices: np.ndarray, sigma: float, seeds: Sequence[int]) -> np.ndarray:
    """An outline seen once per seed through the noise: a (len(seeds), V, 2)
    array whose row t adds a draw from ``default_rng(seeds[t])`` to
    ``vertices``, so each observation keeps its own seeded draw."""
    shape = vertices.shape
    if sigma == 0.0:
        return np.broadcast_to(vertices, (len(seeds), *shape))
    observed = np.empty((len(seeds), *shape))
    for t, seed in enumerate(seeds):
        observed[t] = np.random.default_rng(seed).normal(0.0, sigma, shape)
    observed += vertices
    if not np.isfinite(observed).all():
        raise ContractViolation("outline vertices must be finite")
    return observed


def _observed_distances(
    true_index: int, entry: CharacterEntry, params: ChannelParams, trials: Sequence[int]
) -> np.ndarray:
    """Distances of the true glyph, observed once per trial, to each glyph:
    a (len(trials), capacity) array."""
    if not (0 <= true_index < entry.capacity):
        raise ContractViolation("true_index out of range")
    seeds = [stable_seed(params.seed, "obs", true_index, trial) for trial in trials]
    observed = _observations(entry.glyphs[true_index].outline.vertices, params.sigma, seeds)
    return entry.outline_stack.batch_distances(observed)


def simulate_recognition(
    true_index: int,
    entry: CharacterEntry,
    params: ChannelParams,
    trial: int = 0,
) -> RecognitionResult:
    """One pass through the noisy channel: perturb the true glyph, recognize it."""
    d = _observed_distances(true_index, entry, params, [trial])[0]
    return RecognitionResult(_probabilities(d), int(np.argmin(d)), true_index)


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
    accs = np.empty(len(outlines))
    for which, outline in enumerate(outlines):
        seeds = [stable_seed(params.seed, "oracle", subset_key, which, t) for t in range(per)]
        observed = _observations(outline.vertices, params.sigma, seeds)
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
    from the same simulated observations.
    """
    n = len(codeword)
    if len(entries) != n:
        raise ContractViolation("entry list length does not match codeword")
    if not (0 <= count <= n):
        raise ContractViolation("count must be in [0, n]")
    rng = np.random.default_rng(stable_seed(params.seed, "positions", tuple(codeword)))
    error_at = set(rng.choice(n, size=count, replace=False).tolist()) if count else set()
    vector: list[int] = []
    table: list[np.ndarray] = []
    for j, (true, entry) in enumerate(zip(codeword, entries)):
        want_error = j in error_at
        first = _observed_distances(true, entry, params, [stable_seed("inject", j, 0)])[0]
        kept = first if (int(np.argmin(first)) != true) == want_error else None
        # without noise every retry repeats the first observation
        if kept is None and params.sigma > 0.0:
            trials = [stable_seed("inject", j, attempt) for attempt in range(1, _ATTEMPTS)]
            d = _observed_distances(true, entry, params, trials)
            (hits,) = np.nonzero((np.argmin(d, axis=1) != true) == want_error)
            if hits.size:
                kept = d[hits[0]]
        if kept is not None:
            vector.append(int(np.argmin(kept)))
            table.append(_probabilities(kept))
        elif want_error:
            # noise too small to confuse: force the runner-up glyph
            probs = _probabilities(first)
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
