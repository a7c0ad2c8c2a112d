import tracemalloc

import numpy as np
import pytest
from oracles import (
    attempt_loop_inject_errors,
    scalar_outline_distance,
    trial_loop_per_glyph_accuracy,
)

from glyphcode import channel, fixtures, pipeline
from glyphcode.codebook import CharacterEntry, ManifoldPoint, PerturbedGlyphEntry
from glyphcode.crc import hamming_distance
from glyphcode.errors import ContractViolation
from glyphcode.outline import GlyphOutline, OutlineStack, resample_outline


@pytest.fixture(scope="module")
def entry():
    return fixtures.chain_entry("a", 5)


def test_recognize_exact_match(entry):
    f = entry.glyphs[3].outline
    res = channel.recognize_vector(f, entry)
    assert res.argmax_index == 3
    assert res.probabilities[3] == 1.0
    assert res.probabilities.sum() == pytest.approx(1.0)


def test_recognize_equidistant_tiebreak():
    sq = GlyphOutline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    g0 = PerturbedGlyphEntry(0, ManifoldPoint(0, 0), sq, 1.0)
    g1 = PerturbedGlyphEntry(1, ManifoldPoint(1, 0), sq, 1.0)
    e = CharacterEntry("q", g0, (g0, g1))
    shifted = GlyphOutline(sq.vertices + np.array([[0.0, 0.0], [0.0, 0.1], [0.0, 0.0], [0.0, -0.1]]))
    res = channel.recognize_vector(shifted, e)
    assert res.argmax_index == 0
    assert res.probabilities[0] == pytest.approx(0.5)
    assert res.probabilities[1] == pytest.approx(0.5)


def test_recognition_matches_scalar_distance(entry):
    # vectorized path must agree with the per-pair distance oracle
    f = GlyphOutline(entry.glyphs[2].outline.vertices + 0.003)
    res = channel.recognize_vector(f, entry)
    d = np.array([scalar_outline_distance(f, g.outline) for g in entry.glyphs])
    assert res.argmax_index == int(np.argmin(d))
    expect = (1.0 / d) / (1.0 / d).sum()
    assert np.allclose(res.probabilities, expect)


def test_simulate_zero_noise(entry):
    params = channel.ChannelParams(sigma=0.0)
    res = channel.simulate_recognition(2, entry, params)
    assert res.argmax_index == 2 and res.true_index == 2
    assert res.probabilities[2] == 1.0


def test_simulate_reproducible(entry):
    params = channel.ChannelParams(seed=5)
    a = channel.simulate_recognition(1, entry, params, trial=3)
    b = channel.simulate_recognition(1, entry, params, trial=3)
    assert np.array_equal(a.probabilities, b.probabilities)
    c = channel.simulate_recognition(1, entry, params, trial=4)
    assert not np.array_equal(a.probabilities, c.probabilities)


def test_default_sigma_accuracy(entry):
    params = channel.ChannelParams(trials=1000)
    accs = channel.per_glyph_accuracy([g.outline for g in entry.glyphs], params)
    assert accs.min() >= 0.90


def test_identical_glyphs_chance_accuracy(entry):
    o = entry.glyphs[0].outline
    params = channel.ChannelParams(trials=400)
    acc = channel.accuracy_oracle([o, GlyphOutline(o.vertices.copy())], params)
    assert acc == pytest.approx(0.5, abs=0.06)


def test_accuracy_monotone_in_sigma(entry):
    outlines = [g.outline for g in entry.glyphs]
    accs = [
        channel.accuracy_oracle(outlines, channel.ChannelParams(sigma=s, trials=400))
        for s in (0.004, 0.012, 0.05)
    ]
    assert accs[0] >= accs[1] >= accs[2]



def _accuracy_subsets(rng):
    """Random glyph subsets of the fixture codebook, some with a repeated
    glyph, at random noise levels (sigma 0 included), trial counts and seeds."""
    cb = fixtures.channel_codebook()
    for case in range(72):
        entry = cb.entry(sorted(cb.entries)[int(rng.integers(len(cb.entries)))])
        outlines = [g.outline for g in entry.glyphs]
        size = int(rng.integers(2, min(6, len(outlines)) + 1))
        picks = rng.choice(len(outlines), size=size, replace=case % 4 == 0)
        sigma = float(rng.choice([0.0, 0.004, 0.008, 0.02, 0.05]))
        params = channel.ChannelParams(
            sigma=sigma, seed=int(rng.integers(1000)), trials=int(rng.integers(1, 120))
        )
        yield [outlines[int(i)] for i in picks], params


def test_per_glyph_accuracy_matches_trial_loop_oracle():
    rng = np.random.default_rng(14)
    misread = 0
    for outlines, params in _accuracy_subsets(rng):
        got = channel.per_glyph_accuracy(outlines, params)
        assert np.array_equal(got, trial_loop_per_glyph_accuracy(outlines, params))
        misread += int((got < 1.0).any())
    assert misread >= 20
    outlines = fixtures.chain_outlines("w", 3)
    for run in (channel.per_glyph_accuracy, trial_loop_per_glyph_accuracy):
        with pytest.raises(ContractViolation, match="finite"):
            run(outlines, channel.ChannelParams(sigma=np.inf))


@pytest.mark.parametrize("glyphs", [2, 20])
def test_oracle_trial_memory_is_bounded(glyphs):
    """A batch of trials holds about ``trials`` observations whatever the
    subset size, so 1000 trials on 256-vertex outlines stay near 4 MB."""
    outlines = fixtures.chain_outlines("m", glyphs, vertex_count=256)
    params = channel.ChannelParams(trials=1000)
    tracemalloc.start()
    try:
        channel.per_glyph_accuracy(outlines, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"

def test_inject_errors_counts(entry):
    entries = [entry] * 5
    codeword = (0, 1, 2, 3, 4)
    params = channel.ChannelParams(seed=11)
    for count in (0, 1, 2):
        vec, table = channel.inject_errors(codeword, entries, count, params)
        assert hamming_distance(vec, codeword) == count
        assert len(table) == 5
        for row in table:
            assert row.sum() == pytest.approx(1.0)
    with pytest.raises(ContractViolation):
        channel.inject_errors(codeword, entries, 6, params)


def test_channel_params_validation():
    with pytest.raises(ContractViolation):
        channel.ChannelParams(sigma=-1.0)
    with pytest.raises(ContractViolation):
        channel.ChannelParams(trials=0)
    for sigma in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractViolation, match="finite"):
            channel.ChannelParams(sigma=sigma)


def test_overflowing_sigma_is_refused(entry):
    """At sigma 1e306 the observations stay finite but their distances
    overflow; the channel refuses them instead of warning and taking an
    argmin over inf or NaN."""
    params = channel.ChannelParams(sigma=1e306)
    outlines = [g.outline for g in entry.glyphs]
    with pytest.raises(ContractViolation, match="overflow"):
        channel.per_glyph_accuracy(outlines, params)
    with pytest.raises(ContractViolation, match="overflow"):
        channel.inject_errors((0, 1, 2, 3, 4), [entry] * 5, 2, params)
    noise = np.random.default_rng(0).normal(0.0, 1e306, outlines[0].vertices.shape)
    with pytest.raises(ContractViolation, match="overflow"):
        channel.recognize_vector(GlyphOutline(outlines[0].vertices + noise), entry)


def test_recognition_refuses_mixed_vertex_counts(entry):
    glyphs = (
        entry.glyphs[0],
        PerturbedGlyphEntry(1, ManifoldPoint(1, 0), resample_outline(entry.glyphs[1].outline, 32), 1.0),
    )
    mixed = CharacterEntry("m", glyphs[0], glyphs)
    with pytest.raises(ContractViolation):
        channel.recognize_vector(entry.glyphs[0].outline, mixed)


def test_recognition_memory_is_bounded():
    """Recognizing against 600 throwaway entries keeps no per-entry state."""
    tracemalloc.start()
    try:
        for seed in range(600):
            e = fixtures.chain_entry("a", 8, vertex_count=256, seed=seed)
            res = channel.recognize_vector(e.glyphs[5].outline, e)
            assert res.argmax_index == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_inject_errors_forces_runner_up_without_noise(entry):
    # noise-free observations are never misread, so every error is forced to
    # the most likely glyph other than the true one: the lowest other index
    codeword = (0, 1, 2, 3, 4)
    params = channel.ChannelParams(sigma=0.0, seed=11)
    vec, table = channel.inject_errors(codeword, [entry] * 5, 2, params)
    wrong = [j for j in range(5) if vec[j] != codeword[j]]
    assert len(wrong) == 2
    for j in wrong:
        assert vec[j] == (1 if codeword[j] == 0 else 0)
    for j, row in enumerate(table):
        assert np.array_equal(row, np.eye(5)[codeword[j]])


@pytest.fixture(scope="module")
def document():
    cb = fixtures.channel_codebook()
    text = fixtures.random_text(120, seed=42)
    return cb, pipeline.embed(text, cb, "1101001110001011")


def test_simulate_document_corrupts_only_the_given_blocks(document):
    cb, doc = document
    seq = pipeline.letter_sequence(doc.text, cb)
    blocks = pipeline.partition_blocks(seq)
    params = [channel.ChannelParams(seed=7), channel.ChannelParams(seed=8)]
    noisy, rows = channel.simulate_document(doc, cb, 1, params)
    assert noisy.text == doc.text and noisy.codebook_id == doc.codebook_id
    assert len(rows) == len(seq.letters)
    touched = {i for b in blocks[:2] for i in b.member_indices}
    for b, p in zip(blocks[:2], params):
        vector = [doc.glyph_indices[i] for i in b.member_indices]
        entries = [cb.entry(seq.letters[i]) for i in b.member_indices]
        observed, table = channel.inject_errors(vector, entries, 1, p)
        assert [noisy.glyph_indices[i] for i in b.member_indices] == list(observed)
        for i, row in zip(b.member_indices, table):
            assert np.array_equal(rows[i], row)
    for i, cap in enumerate(seq.capacities):
        if i not in touched:
            assert noisy.glyph_indices[i] == doc.glyph_indices[i]
            assert np.array_equal(rows[i], np.full(cap, 1.0 / cap))
    recovered, _ = pipeline.extract(noisy, cb, likelihoods=rows)
    assert recovered == "1101001110001011"


def test_simulate_document_refuses_a_short_index_stream(document):
    cb, doc = document
    short = pipeline.EncodedDocument(doc.text, doc.glyph_indices[:50], doc.codebook_id)
    with pytest.raises(ContractViolation, match="glyph index stream does not match the letter count"):
        channel.simulate_document(short, cb, 1, [channel.ChannelParams()])


def test_simulate_document_keeps_the_partition_errors(document):
    """A document with no codebook letter, and a block size below 2, are
    refused as the block partition refuses them."""
    cb, doc = document
    empty = pipeline.EncodedDocument("12 3!", (), doc.codebook_id)
    with pytest.raises(ContractViolation, match="letter sequence is empty"):
        channel.simulate_document(empty, cb, 1, [channel.ChannelParams()])
    with pytest.raises(ContractViolation, match="need n >= 2"):
        channel.simulate_document(doc, cb, 1, [channel.ChannelParams()], n=1)


def _fixture_blocks(rng, cases):
    """Random codewords over fixture codebooks with capacities 2-40, at every
    error count and at noise levels from none to one that misreads almost
    every glyph."""
    caps = {ch: int(c) for ch, c in zip("abcdefghij", rng.integers(2, 41, size=10))}
    caps.update(p=2, q=3, r=40)
    entries = list(fixtures.fixture_codebook(caps).entries.values())
    for case in range(cases):
        n = int(rng.integers(1, 7))
        block = [entries[int(i)] for i in rng.integers(len(entries), size=n)]
        codeword = tuple(int(rng.integers(e.capacity)) for e in block)
        count = case % (n + 1)
        sigma = (0.0, 1e-3, channel.DEFAULT_SIGMA, 0.05, 1.0)[case % 5]
        yield codeword, block, count, channel.ChannelParams(sigma=sigma, seed=int(rng.integers(10**6)))


def test_inject_errors_matches_attempt_loop_oracle():
    rng = np.random.default_rng(16)
    kept = []
    for codeword, block, count, params in _fixture_blocks(rng, 100):
        vector, table = channel.inject_errors(codeword, block, count, params)
        want_vector, want_table = attempt_loop_inject_errors(codeword, block, count, params, kept=kept)
        assert vector == want_vector
        assert len(table) == len(want_table)
        assert all(np.array_equal(a, b) for a, b in zip(table, want_table))
    # the first observation kept, a later attempt kept, and forced outcomes
    assert kept.count(0) >= 50
    assert sum(a is not None and a > 0 for a in kept) >= 20
    assert kept.count(None) >= 20


def test_inject_errors_refuses_like_attempt_loop_oracle():
    entries = list(fixtures.fixture_codebook({"a": 3, "b": 7}).entries.values())
    params = channel.ChannelParams(seed=3)
    bad = [
        ((0, 1), entries[:1], 1),  # entry list too short
        ((0, 1), entries, 3),  # count above n
        ((0, 1), entries, -1),
        ((0, 7), entries, 1),  # glyph index past the capacity
        ((-1, 2), entries, 0),
    ]
    for codeword, block, count in bad:
        with pytest.raises(ContractViolation) as got:
            channel.inject_errors(codeword, block, count, params)
        with pytest.raises(ContractViolation) as want:
            attempt_loop_inject_errors(codeword, block, count, params)
        assert str(got.value) == str(want.value)


def test_inject_errors_recognizes_retries_in_one_batch(monkeypatch):
    """Per position: one distance call for the first observation, at most one
    for all its retries, and probabilities for the kept row only."""
    calls = {"distances": 0, "probabilities": 0}
    batch_distances = OutlineStack.batch_distances
    probabilities = channel._probabilities

    def counted_distances(self, observed):
        calls["distances"] += 1
        return batch_distances(self, observed)

    def counted_probabilities(d):
        calls["probabilities"] += 1
        return probabilities(d)

    monkeypatch.setattr(OutlineStack, "batch_distances", counted_distances)
    monkeypatch.setattr(channel, "_probabilities", counted_probabilities)
    rng = np.random.default_rng(17)
    retried = 0
    for codeword, block, count, params in _fixture_blocks(rng, 40):
        calls.update(distances=0, probabilities=0)
        channel.inject_errors(codeword, block, count, params)
        assert calls["distances"] <= 2 * len(codeword)
        assert calls["probabilities"] <= len(codeword)
        retried += calls["distances"] > len(codeword)
    assert retried >= 10


def test_inject_errors_memory_is_bounded():
    """A position's retries hold at most 31 x 40 x 256 x 2 floats (about
    5 MB) at capacity 40 with 256-vertex outlines."""
    entry = fixtures.chain_entry("m", 40, vertex_count=256)
    entry.outline_stack  # stacked once, outside the measured peak
    params = channel.ChannelParams(sigma=1e-3, seed=2)
    tracemalloc.start()
    try:
        vector, _ = channel.inject_errors((0, 10, 20, 30, 39), [entry] * 5, 5, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hamming_distance(vector, (0, 10, 20, 30, 39)) == 5
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"
