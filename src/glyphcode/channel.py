"""Noisy glyph recognition for vector documents.

Recognition of a clean vector outline is nearest-neighbor in outline space;
the simulated channel perturbs the true glyph's vertices with isotropic
Gaussian noise before recognition, standing in for rasterization and photo
degradation.  The probability vector over a letter's glyphs (normalized
inverse distance) is what maximum-likelihood decoding consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .codebook import CharacterEntry, Codebook
from .errors import ContractViolation
from .outline import GlyphOutline, OutlineStack
from .pipeline import EncodedDocument, letter_sequence, partition_blocks
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


@dataclass(frozen=True)
class ChannelParams:
    sigma: float = DEFAULT_SIGMA
    seed: int = 0
    trials: int = 200

    def __post_init__(self):
        if self.sigma < 0:
            raise ContractViolation("sigma must be non-negative")
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


def _noisy(outline: GlyphOutline, sigma: float, seed: int) -> GlyphOutline:
    if sigma == 0.0:
        return outline
    rng = np.random.default_rng(seed)
    return GlyphOutline(outline.vertices + rng.normal(0.0, sigma, outline.vertices.shape))


def simulate_recognition(
    true_index: int,
    entry: CharacterEntry,
    params: ChannelParams,
    trial: int = 0,
) -> RecognitionResult:
    """One pass through the noisy channel: perturb the true glyph, recognize it."""
    if not (0 <= true_index < entry.capacity):
        raise ContractViolation("true_index out of range")
    f = _noisy(
        entry.glyphs[true_index].outline,
        params.sigma,
        stable_seed(params.seed, "obs", true_index, trial),
    )
    res = recognize_vector(f, entry)
    return replace(res, true_index=true_index)


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
        shape = outline.vertices.shape
        # each trial keeps its own seeded draw; the trials are recognized at once
        if params.sigma == 0.0:
            observed = np.broadcast_to(outline.vertices, (per, *shape))
        else:
            observed = np.empty((per, *shape))
            for t in range(per):
                seed = stable_seed(params.seed, "oracle", subset_key, which, t)
                observed[t] = np.random.default_rng(seed).normal(0.0, params.sigma, shape)
            observed += outline.vertices
            if not np.isfinite(observed).all():
                raise ContractViolation("outline vertices must be finite")
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
    max_attempts: int = 32,
) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Corrupt exactly ``count`` positions of a codeword through the channel.

    Error positions are drawn without replacement; each is re-simulated until
    the channel misrecognizes the glyph (forced to the second-most-likely
    glyph if the noise never confuses it).  Non-error positions keep their
    true glyph.  The returned likelihood table comes from the same simulated
    observations.
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
        first = simulate_recognition(true, entry, params, trial=stable_seed("inject", j, 0))
        res = None
        for attempt in range(max_attempts):
            cand = first if attempt == 0 else simulate_recognition(
                true, entry, params, trial=stable_seed("inject", j, attempt)
            )
            if (cand.argmax_index != true) == want_error:
                res = cand
                break
        if res is None:
            if want_error:
                # noise too small to confuse: force the runner-up glyph
                order = np.argsort(-first.probabilities, kind="stable")
                runner_up = int(order[1]) if int(order[0]) == true else int(order[0])
                res = RecognitionResult(first.probabilities, runner_up, true)
            else:
                probs = np.zeros(entry.capacity)
                probs[true] = 1.0
                res = RecognitionResult(probs, true, true)
        vector.append(res.argmax_index)
        table.append(res.probabilities)
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
    indices = list(doc.glyph_indices)
    rows = [np.full(c, 1.0 / c) for c in seq.capacities]
    for block, params in zip(partition_blocks(seq, n, k), block_params):
        members = block.member_indices
        vector = [indices[i] for i in members]
        entries = [codebook.entry(seq.letters[i]) for i in members]
        observed, table = inject_errors(vector, entries, errors, params)
        for i, v, row in zip(members, observed, table):
            indices[i] = v
            rows[i] = row
    return EncodedDocument(doc.text, tuple(indices), doc.codebook_id), rows
