"""Glyph codebook model and construction.

A codebook maps each character to an ordered list of perturbed glyphs; the
list index is the integer a letter embeds.  Construction starts from a
perceptually-selected candidate set and iterates a confusion test against a
distinguishability oracle: pairs the oracle cannot tell apart ( < 0.95
accuracy) lose their edge in an initially-complete graph, and the candidate
set is replaced by the maximum clique, until the set stops changing.  A final
per-glyph filter drops anything below 0.9 multi-way accuracy.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractViolation, NonConvergenceError
from .outline import GlyphOutline, resample_outline


def _conform(outline: GlyphOutline, count: int) -> GlyphOutline:
    # resampling an already-conforming outline would shift vertices slightly
    # (arc-length resampling is not a projection), breaking idempotence
    return outline if outline.vertex_count == count else resample_outline(outline, count)
from .util import stable_seed

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


@dataclass(frozen=True)
class Codebook:
    font_id: str
    entries: dict[str, CharacterEntry]
    version: str = "1"
    resample_count: int = 64

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


def _clique_bound_search(adj: list[int], cand: int, need: int) -> bool:
    """True iff the candidate mask contains a clique of at least ``need`` nodes.

    Branch and bound with a greedy-coloring upper bound (exact, not
    heuristic); masks are Python big-ints over node positions.
    """
    if need <= 0:
        return True

    def expand(cand: int, depth: int) -> bool:
        if depth >= need:
            return True
        # Greedy coloring: nodes of one color class are pairwise non-adjacent,
        # so the color count bounds the largest clique in cand.
        order: list[tuple[int, int]] = []  # (node, color)
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                uncolored &= ~(1 << v)
                avail &= ~(1 << v)
                avail &= ~adj[v]
        if depth + color < need:
            return False
        # Branch on nodes in reverse color order (highest bound first).
        for v, c in reversed(order):
            if depth + c < need:
                return False
            if expand(cand & adj[v], depth + 1):
                return True
            cand &= ~(1 << v)
        return False

    return expand(cand, 0)


def max_clique(graph: ConfusionGraph) -> tuple[int, ...]:
    """Exact maximum clique with a deterministic tie-break.

    Among all maximum-cardinality cliques the lexicographically smallest id
    set is returned.
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

    full = (1 << n) - 1
    # exact size by binary search over the feasibility predicate
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _clique_bound_search(adj, full, mid):
            lo = mid
        else:
            hi = mid - 1
    size = lo

    # lexicographically smallest witness: commit the smallest feasible node,
    # in ascending id order
    chosen: list[int] = []
    cand = full
    for i in range(n):
        if not (cand >> i) & 1:
            continue
        if _clique_bound_search(adj, cand & adj[i], size - len(chosen) - 1):
            chosen.append(i)
            cand &= adj[i]
            if len(chosen) == size:
                break
        else:
            cand &= ~(1 << i)
    assert len(chosen) == size
    return tuple(nodes[i] for i in chosen)


def confusion_test(
    candidates: Iterable[int],
    oracle: Callable[[tuple[int, int]], float],
    pair_count: int = 100,
    threshold: float = 0.95,
    rng: np.random.Generator | None = None,
) -> set[frozenset[int]]:
    """Sample up to ``pair_count`` candidate pairs and return the confusable ones.

    Pairs are drawn without replacement; a pair lands in the result set when
    the oracle's accuracy estimate falls below ``threshold``.
    """
    ids = sorted(set(candidates))
    if len(ids) < 2:
        raise ContractViolation("need at least two candidates")
    if pair_count < 1:
        raise ContractViolation("pair_count must be positive")
    pairs = list(itertools.combinations(ids, 2))
    if len(pairs) > pair_count:
        rng = rng if rng is not None else np.random.default_rng(0)
        picks = rng.choice(len(pairs), size=pair_count, replace=False)
        pairs = [pairs[i] for i in sorted(picks)]
    confused: set[frozenset[int]] = set()
    for a, b in pairs:
        acc = float(oracle((a, b)))
        if not (0.0 <= acc <= 1.0):
            raise ContractViolation("oracle accuracy must be in [0, 1]")
        if acc < threshold:
            confused.add(frozenset((a, b)))
    return confused


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
    version: str = "1",
    resample_count: int = 64,
    pair_count: int = 100,
    pair_threshold: float = 0.95,
    final_threshold: float = 0.90,
    max_iterations: int = 16,
    seed: int = 0,
) -> Codebook:
    """Run the confusion-test / maximum-clique loop per character.

    Each iteration tests random candidate pairs, removes the confusable edges
    and keeps the maximum clique, until the candidate set is a fixed point
    (capped at ``max_iterations``).  Survivors below ``final_threshold``
    multi-way accuracy are dropped; an empty survivor set degrades to the
    original glyph alone with a warning.
    """
    entries: dict[str, CharacterEntry] = {}
    for character in sorted(initial_candidates):
        cands = {c.glyph_id: c for c in initial_candidates[character]}
        if len(cands) != len(initial_candidates[character]):
            raise ContractViolation(f"duplicate glyph ids for {character!r}")
        current = sorted(cands)
        graph = ConfusionGraph(current)

        def pair_oracle(pair: tuple[int, int]) -> float:
            a, b = sorted(pair)
            return oracle(
                character, (a, b), [cands[a].outline, cands[b].outline]
            )

        iteration = 0
        while len(current) > 1:
            iteration += 1
            if iteration > max_iterations:
                raise NonConvergenceError(
                    f"character {character!r} did not converge in {max_iterations} iterations"
                )
            rng = np.random.default_rng(stable_seed(seed, character, iteration))
            confused = confusion_test(
                current, pair_oracle, pair_count, pair_threshold, rng
            )
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
                (i, float(a)) for i, a in zip(survivors, accs) if a >= final_threshold
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
                outline=_conform(source[i].outline, resample_count),
                accuracy=acc,
            )
            for rank, (i, acc) in enumerate(sorted(kept))
        )
        entries[character] = CharacterEntry(
            character=character,
            original=PerturbedGlyphEntry(
                index=0,
                point=orig.point,
                outline=_conform(orig.outline, resample_count),
                accuracy=1.0,
            ),
            glyphs=glyphs,
        )
    return Codebook(
        font_id=font_id, entries=entries, version=version, resample_count=resample_count
    )
