import collections
import hashlib
import io
import itertools

import numpy as np
import pytest
from oracles import two_phase_max_clique

from glyphcode import channel, codebook, fixtures, formats
from glyphcode.codebook import (
    ConfusionGraph,
    build_codebook,
    confusion_test,
    max_clique,
)
from glyphcode.errors import ContractViolation, NonConvergenceError


def brute_max_clique(graph: ConfusionGraph):
    """Exhaustive subset-enumeration oracle (small graphs only)."""
    nodes = graph.nodes
    best = ()
    for size in range(len(nodes), 0, -1):
        found = [
            c
            for c in itertools.combinations(nodes, size)
            if all(graph.has_edge(a, b) for a, b in itertools.combinations(c, 2))
        ]
        if found:
            return min(found)
    return best


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    g = ConfusionGraph(range(n))
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() > density:
            g.remove_edge(a, b)
    return g


def test_max_clique_complete():
    assert max_clique(ConfusionGraph(range(5))) == (0, 1, 2, 3, 4)


def test_max_clique_five_cycle():
    g = ConfusionGraph(range(5))
    for a, b in itertools.combinations(range(5), 2):
        if (b - a) % 5 not in (1, 4):
            g.remove_edge(a, b)
    assert max_clique(g) == (0, 1)


def test_max_clique_matches_oracle_small():
    for seed in range(60):
        n = 4 + seed % 10
        g = random_graph(n, 0.4 + (seed % 5) * 0.1, seed)
        assert max_clique(g) == brute_max_clique(g)


def test_max_clique_matches_two_phase_oracle():
    """One branch and bound returns the clique that the size search plus a
    per-node witness search returned, on sparse, unsorted node ids."""
    rng = np.random.default_rng(11)
    for trial in range(2000):
        n = 1 + trial % 30
        density = 0.2 + 0.1 * (trial // 30 % 9)  # 0.2, 0.3, ..., 1.0
        ids = [int(x) for x in rng.choice(10 * n + 50, size=n, replace=False)]
        g = ConfusionGraph(ids)
        for a, b in itertools.combinations(ids, 2):
            if rng.random() > density:
                g.remove_edge(a, b)
        assert max_clique(g) == two_phase_max_clique(g), (ids, density)


def test_confusion_graph_ops():
    g = ConfusionGraph([3, 1, 2])
    assert g.nodes == (1, 2, 3)
    assert g.has_edge(1, 3)
    g.remove_edge(3, 1)
    assert not g.has_edge(1, 3)
    sub = g.subgraph([1, 2])
    assert sub.has_edge(1, 2)
    with pytest.raises(ContractViolation):
        g.remove_edge(1, 1)


def test_confusion_test_trivial():
    rng = np.random.default_rng(0)
    assert confusion_test([0, 1], lambda pair: 1.0, rng) == set()
    assert confusion_test([0, 1], lambda pair: 0.5, rng) == {frozenset((0, 1))}
    with pytest.raises(ContractViolation):
        confusion_test([0], lambda pair: 1.0, rng)


def test_confusion_test_adjacent_chain():
    # ten candidates 0.45 steps apart: adjacent pairs confusable (<= 0.88
    # accuracy), second neighbors and beyond are not (>= 0.98)
    params = channel.ChannelParams(trials=800)
    cands = fixtures.chain_candidates("a", [1.0 + 0.45 * i for i in range(10)])
    outlines = {c.glyph_id: c.outline for c in cands}

    def oracle(pair):
        a, b = sorted(pair)
        return channel.accuracy_oracle([outlines[a], outlines[b]], params)

    confused = confusion_test(range(10), oracle, np.random.default_rng(0))
    expected = {frozenset((i, i + 1)) for i in range(9)}
    assert confused == expected


def test_confusion_test_samples_pair_count_distinct_pairs():
    """15 candidates make 105 pairs: exactly 100 distinct ones are asked, the
    same ones for the same generator."""

    def asked_pairs(seed):
        asked = []

        def oracle(pair):
            asked.append(pair)
            return 1.0

        confusion_test(range(15), oracle, rng=np.random.default_rng(seed))
        return asked

    first = asked_pairs(4)
    assert len(first) == len(set(first)) == codebook.PAIR_COUNT == 100
    assert all(a < b for a, b in first)
    assert asked_pairs(4) == first
    assert set(asked_pairs(5)) != set(first)


def _perfect_oracles():
    def oracle(character, ids, outlines):
        return 1.0

    def per_glyph(character, ids, outlines):
        return np.ones(len(ids))

    return oracle, per_glyph


def test_build_codebook_keeps_all_when_distinguishable():
    oracle, per_glyph = _perfect_oracles()
    cands = {"a": fixtures.chain_candidates("a", range(6))}
    cb = build_codebook(cands, oracle, per_glyph, {"a": cands["a"][0]})
    assert cb.capacity("a") == 6
    assert [g.index for g in cb.entries["a"].glyphs] == list(range(6))


def test_build_codebook_excludes_universal_confuser():
    # candidate 0 confuses with everyone else; the rest are clean
    def oracle(character, ids, outlines):
        return 0.5 if 0 in ids else 1.0

    def per_glyph(character, ids, outlines):
        return np.ones(len(ids))

    cands = {"b": fixtures.chain_candidates("b", range(5))}
    cb = build_codebook(cands, oracle, per_glyph, {"b": cands["b"][0]})
    kept = [g.point.x for g in cb.entries["b"].glyphs]
    assert cb.capacity("b") == 4
    assert 0.0 not in kept


def test_build_codebook_degrades_to_original():
    def oracle(character, ids, outlines):
        return 0.5

    def per_glyph(character, ids, outlines):
        return np.zeros(len(ids))

    cands = {"c": fixtures.chain_candidates("c", range(4))}
    cb = build_codebook(cands, oracle, per_glyph, {"c": cands["c"][0]})
    assert cb.capacity("c") == 1


def test_build_codebook_falls_back_to_original_when_filter_drops_all(caplog):
    """Several survivors that all fail the final filter leave the original
    glyph alone, with a warning."""
    oracle, _ = _perfect_oracles()

    def per_glyph(character, ids, outlines):
        return np.full(len(ids), codebook.FINAL_THRESHOLD - 0.01)

    cands = {"d": fixtures.chain_candidates("d", range(1, 5))}
    orig = fixtures.chain_candidates("d", [7.5])[0]
    with caplog.at_level("WARNING", logger="glyphcode.codebook"):
        cb = build_codebook(cands, oracle, per_glyph, {"d": orig})
    (glyph,) = cb.entries["d"].glyphs
    assert (glyph.point, glyph.accuracy) == (orig.point, 1.0)
    assert glyph.outline == orig.outline
    assert "kept no candidates" in caplog.text


def test_build_codebook_refuses_to_exceed_max_iterations():
    """A first iteration that removes an edge changes the set, so one
    iteration is not enough."""

    def oracle(character, ids, outlines):
        return 0.5 if 0 in ids else 1.0

    _, per_glyph = _perfect_oracles()
    cands = {"e": fixtures.chain_candidates("e", range(4))}
    with pytest.raises(NonConvergenceError, match="1 iterations"):
        build_codebook(cands, oracle, per_glyph, {"e": cands["e"][0]}, max_iterations=1)
    cb = build_codebook(cands, oracle, per_glyph, {"e": cands["e"][0]}, max_iterations=2)
    assert cb.capacity("e") == 3


def test_build_codebook_reproducible_and_idempotent():
    params = channel.ChannelParams(trials=200)
    oracle, per_glyph = channel.make_codebook_oracles(params)
    cands = {"a": fixtures.chain_candidates("a", [0, 1, 1.2, 2, 3, 3.3, 4])}
    orig = {"a": cands["a"][0]}
    cb1 = build_codebook(cands, oracle, per_glyph, orig)
    cb2 = build_codebook(cands, oracle, per_glyph, orig)
    assert [g.outline for g in cb1.entries["a"].glyphs] == [
        g.outline for g in cb2.entries["a"].glyphs
    ]
    # run again on its own output: nothing changes
    from glyphcode.codebook import GlyphCandidate

    again = {
        "a": [
            GlyphCandidate(g.index, g.point, g.outline)
            for g in cb1.entries["a"].glyphs
        ]
    }
    cb3 = build_codebook(again, oracle, per_glyph, {"a": again["a"][0]})
    assert cb3.capacity("a") == cb1.capacity("a")
    assert [g.outline for g in cb3.entries["a"].glyphs] == [
        g.outline for g in cb1.entries["a"].glyphs
    ]


def test_build_codebook_asks_each_pair_once(monkeypatch):
    """A pair the confusion test draws again in a later iteration is answered
    from the first call, and the codebook is the one built by asking again."""
    params = channel.ChannelParams(sigma=0.02, seed=0)
    oracle, per_glyph = channel.make_codebook_oracles(params)
    calls = collections.Counter()

    def counting_oracle(character, ids, outlines):
        calls[character, ids] += 1
        return oracle(character, ids, outlines)

    requests = collections.Counter()  # keyed by each character's pair oracle

    def counting_confusion_test(candidates, pair_oracle, *args):
        def asked(pair):
            requests[pair_oracle, tuple(sorted(pair))] += 1
            return pair_oracle(pair)

        return confusion_test(candidates, asked, *args)

    monkeypatch.setattr(codebook, "confusion_test", counting_confusion_test)
    offsets = [0, 0.5, 1.0, 1.5, 2, 2.5, 3, 3.6, 4.1, 4.5]
    cands = {ch: fixtures.chain_candidates(ch, offsets, seed=0) for ch in "ab"}
    cb = build_codebook(cands, counting_oracle, per_glyph, {ch: cands[ch][0] for ch in "ab"})
    assert max(calls.values()) == 1
    assert max(requests.values()) > 1  # later iterations drew pairs again
    assert sum(requests.values()) > sum(calls.values())
    buf = io.StringIO()
    formats.write_codebook(cb, buf)
    body = "".join(line for line in buf.getvalue().splitlines(True) if not line.startswith("#"))
    # the codebook built when every drawn pair was asked again
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "a933f643325f913dc81fbc90acc5ee70a540bec17b11ae930a1f458f3147e20c"
    )
    assert {ch: cb.capacity(ch) for ch in "ab"} == {"a": 3, "b": 2}
