"""Glyph codebook model and construction.

A codebook maps each character to an ordered list of perturbed glyphs; the
list index is the integer a letter embeds.  Construction starts from a
perceptually-selected candidate set and iterates a confusion test against a
distinguishability oracle: of ``PAIR_COUNT`` sampled pairs, those the oracle
cannot tell apart (below ``PAIR_THRESHOLD`` accuracy) lose their edge in an
initially-complete graph, and the candidate set is replaced by the maximum
clique, until the set stops changing.  A final per-glyph filter drops
anything below ``FINAL_THRESHOLD`` multi-way accuracy, and every kept
outline is resampled to ``RESAMPLE_COUNT`` vertices.  The two thresholds
are the paper's; no caller changes any of the four constants.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractViolation, NonConvergenceError
from .outline import GlyphOutline, OutlineStack, resample_outline
from .util import as_integer, stable_seed

logger = logging.getLogger(__name__)

__all__ = [
    "ManifoldPoint",
    "PerturbedGlyphEntry",
    "CharacterEntry",
    "Codebook",
    "ConfusionGraph",
    "GlyphCandidate",
    "confusion_test",
    "max_clique",
    "build_codebook",
]

RESAMPLE_COUNT = 64  # vertices of every codebook outline
PAIR_COUNT = 100  # candidate pairs asked per confusion test
PAIR_THRESHOLD = 0.95  # pair accuracy below which the edge is removed
FINAL_THRESHOLD = 0.90  # multi-way accuracy a kept glyph must reach

# oracle(character, glyph ids, outlines) -> accuracy estimate in [0, 1]
Oracle = Callable[[str, tuple[int, ...], Sequence[GlyphOutline]], float]
# per-glyph variant used by the final multi-way filter
PerGlyphOracle = Callable[[str, tuple[int, ...], Sequence[GlyphOutline]], np.ndarray]


@dataclass(frozen=True)
class ManifoldPoint:
    """A location on a (2D) font manifold."""

    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ContractViolation("manifold coordinates must be finite")


@dataclass(frozen=True)
class PerturbedGlyphEntry:
    index: int
    point: ManifoldPoint
    outline: GlyphOutline
    accuracy: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise ContractViolation("accuracy must be in [0, 1]")


@dataclass(frozen=True)
class CharacterEntry:
    character: str
    original: PerturbedGlyphEntry
    glyphs: tuple[PerturbedGlyphEntry, ...]

    def __post_init__(self):
        if len(self.glyphs) < 1:
            raise ContractViolation("a character needs at least one glyph")
        if [g.index for g in self.glyphs] != list(range(len(self.glyphs))):
            raise ContractViolation("glyph indices must be 0..N-1 contiguous")

    @property
    def capacity(self) -> int:
        return len(self.glyphs)

    @cached_property
    def outline_stack(self) -> OutlineStack:
        """The glyph outlines, stacked on first use for recognition."""
        return OutlineStack([g.outline for g in self.glyphs])


@dataclass(frozen=True)
class Codebook:
    font_id: str
    entries: dict[str, CharacterEntry]
    version: str = "1"
    resample_count: int = RESAMPLE_COUNT

    def entry(self, character: str) -> CharacterEntry:
        return self.entries[character]

    def capacity(self, character: str) -> int:
        return self.entries[character].capacity

    def characters(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))


class ConfusionGraph:
    """Simple undirected graph over glyph candidate ids.

    Starts complete; edges are only ever removed (an absent edge means the
    oracle could not distinguish the pair).
    """

    def __init__(self, nodes: Iterable[int]):
        self.nodes: tuple[int, ...] = tuple(sorted(set(nodes)))
        self._missing: set[frozenset[int]] = set()

    def remove_edge(self, a: int, b: int) -> None:
        if a == b or a not in self.nodes or b not in self.nodes:
            raise ContractViolation("edge endpoints must be distinct graph nodes")
        self._missing.add(frozenset((a, b)))

    def has_edge(self, a: int, b: int) -> bool:
        return a != b and frozenset((a, b)) not in self._missing

    def subgraph(self, nodes: Iterable[int]) -> "ConfusionGraph":
        g = ConfusionGraph(nodes)
        keep = set(g.nodes)
        g._missing = {e for e in self._missing if e <= keep}
        return g


def max_clique(graph: ConfusionGraph) -> tuple[int, ...]:
    """Exact maximum clique; among all maximum cliques, the lexicographically
    smallest id set.

    One branch and bound over bitmasks of node positions.  Each branch adds
    candidates in ascending position order, so cliques are met in
    lexicographic order, and only the first clique of each strictly larger
    size is kept.  The candidates are colored greedily from the highest
    position down; nodes of one color are pairwise non-adjacent, so the
    colors in use on v and the candidates above it bound the clique they can
    add.  The branch on v, and every later one, is cut when the chosen
    clique plus that bound cannot beat the best clique so far (Tomita &
    Seki, "An efficient branch-and-bound algorithm for finding a maximum
    clique", 2003).  No cut drops a larger clique, so the first maximum
    clique met is the lexicographically smallest.
    """
    nodes = graph.nodes
    if not nodes:
        raise ContractViolation("graph must have at least one node")
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    for a, b in itertools.combinations(nodes, 2):
        if graph.has_edge(a, b):
            adj[pos[a]] |= 1 << pos[b]
            adj[pos[b]] |= 1 << pos[a]

    best: list[int] = []
    chosen: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
        # greedy coloring from the highest position down: the colors in use
        # when v is colored bound the clique that v and the nodes above add
        bounds: list[tuple[int, int]] = []
        classes: list[int] = []
        rest = cand
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            for i, members in enumerate(classes):
                if not members & adj[v]:
                    classes[i] |= 1 << v
                    break
            else:
                classes.append(1 << v)
            bounds.append((v, len(classes)))
        for v, bound in reversed(bounds):  # ascending positions
            if len(chosen) + bound <= len(best):
                return
            cand ^= 1 << v
            chosen.append(v)
            expand(cand & adj[v])
            chosen.pop()

    expand((1 << n) - 1)
    return tuple(nodes[i] for i in best)


def confusion_test(
    candidates: Iterable[int],
    oracle: Callable[[tuple[int, int]], float],
    rng: np.random.Generator,
) -> set[frozenset[int]]:
    """Sample up to ``PAIR_COUNT`` candidate pairs with ``rng`` and return
    the confusable ones.

    Pairs are drawn without replacement; a pair lands in the result set when
    the oracle's accuracy estimate falls below ``PAIR_THRESHOLD``.
    """
    ids = sorted(set(candidates))
    if len(ids) < 2:
        raise ContractViolation("need at least two candidates")
    pairs = list(itertools.combinations(ids, 2))
    if len(pairs) > PAIR_COUNT:
        picks = rng.choice(len(pairs), size=PAIR_COUNT, replace=False)
        pairs = [pairs[i] for i in sorted(picks)]
    confused: set[frozenset[int]] = set()
    for a, b in pairs:
        acc = float(oracle((a, b)))
        if not (0.0 <= acc <= 1.0):
            raise ContractViolation("oracle accuracy must be in [0, 1]")
        if acc < PAIR_THRESHOLD:
            confused.add(frozenset((a, b)))
    return confused


def _conform(outline: GlyphOutline, count: int) -> GlyphOutline:
    # resampling an already-conforming outline would shift vertices slightly
    # (arc-length resampling is not a projection), breaking idempotence
    return outline if outline.vertex_count == count else resample_outline(outline, count)


@dataclass(frozen=True)
class GlyphCandidate:
    """One perturbed-glyph candidate entering codebook construction."""

    glyph_id: int
    point: ManifoldPoint
    outline: GlyphOutline


def build_codebook(
    initial_candidates: Mapping[str, Sequence[GlyphCandidate]],
    oracle: Oracle,
    per_glyph_oracle: PerGlyphOracle,
    originals: Mapping[str, GlyphCandidate],
    *,
    font_id: str = "synthetic",
    max_iterations: int = 16,
    seed: int = 0,
) -> Codebook:
    """Run the confusion-test / maximum-clique loop per character.

    Each iteration tests random candidate pairs, removes the confusable edges
    and keeps the maximum clique, until the candidate set is a fixed point
    (capped at ``max_iterations``).  Survivors below ``FINAL_THRESHOLD``
    multi-way accuracy are dropped; an empty survivor set degrades to the
    original glyph alone with a warning.

    Both oracles must be pure functions of ``(character, ids, outlines)``:
    a pair drawn again in a later iteration is answered from the first call,
    so ``oracle`` is asked each pair of a character at most once.  A cap
    that is not an integer is refused.
    """
    max_iterations = as_integer(max_iterations, "max_iterations")
    entries: dict[str, CharacterEntry] = {}
    for character in sorted(initial_candidates):
        cands = {c.glyph_id: c for c in initial_candidates[character]}
        if len(cands) != len(initial_candidates[character]):
            raise ContractViolation(f"duplicate glyph ids for {character!r}")
        current = sorted(cands)
        graph = ConfusionGraph(current)

        asked: dict[tuple[int, int], float] = {}

        def pair_oracle(pair: tuple[int, int]) -> float:
            a, b = sorted(pair)
            if (a, b) not in asked:
                asked[a, b] = oracle(
                    character, (a, b), [cands[a].outline, cands[b].outline]
                )
            return asked[a, b]

        iteration = 0
        while len(current) > 1:
            iteration += 1
            if iteration > max_iterations:
                raise NonConvergenceError(
                    f"character {character!r} did not converge in {max_iterations} iterations"
                )
            rng = np.random.default_rng(stable_seed(seed, character, iteration))
            confused = confusion_test(current, pair_oracle, rng)
            for edge in confused:
                a, b = sorted(edge)
                graph.remove_edge(a, b)
            new = list(max_clique(graph.subgraph(current)))
            if new == current:
                break
            current = new

        survivors = list(current)
        if len(survivors) > 1:
            accs = np.asarray(
                per_glyph_oracle(
                    character,
                    tuple(survivors),
                    [cands[i].outline for i in survivors],
                ),
                dtype=float,
            )
            kept = [
                (i, float(a)) for i, a in zip(survivors, accs) if a >= FINAL_THRESHOLD
            ]
        else:
            kept = [(survivors[0], 1.0)] if survivors else []

        orig = originals[character]
        if not kept:
            logger.warning(
                "character %r kept no candidates; capacity degrades to 1", character
            )
            kept = [(orig.glyph_id, 1.0)]
            source = {orig.glyph_id: orig}
        else:
            source = cands
        glyphs = tuple(
            PerturbedGlyphEntry(
                index=rank,
                point=source[i].point,
                outline=_conform(source[i].outline, RESAMPLE_COUNT),
                accuracy=acc,
            )
            for rank, (i, acc) in enumerate(sorted(kept))
        )
        entries[character] = CharacterEntry(
            character=character,
            original=PerturbedGlyphEntry(
                index=0,
                point=orig.point,
                outline=_conform(orig.outline, RESAMPLE_COUNT),
                accuracy=1.0,
            ),
            glyphs=glyphs,
        )
    return Codebook(font_id=font_id, entries=entries)
