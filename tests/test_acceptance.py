"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion computes its verdict first, prints a single summary line, then
asserts, so a failing run still reports every criterion it reached.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import kendalltau

from glyphcode import channel, cli, crypto, fixtures, perceptual, pipeline
from glyphcode.codebook import ConfusionGraph, build_codebook, max_clique
from glyphcode.crc import (
    ModuliSet,
    block_success_cumulative,
    block_success_printed,
    crt_reconstruct,
    encode_phi,
    hamming_decode,
    min_distance,
    ml_decode,
)
from glyphcode.errors import CorruptFrameError
from glyphcode.pipeline import (
    LetterSequence,
    baseline_block_bits,
    partition_blocks,
)
from glyphcode.util import stable_seed


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} ({detail})")
    assert ok, f"criterion {number}: {detail}"


# moduli sets shared by criteria 1 and 2: n <= 5, every p_i <= 31
MODULI_SETS = [
    ModuliSet((2, 3), 1),
    ModuliSet((2, 5), 1),
    ModuliSet((3, 4), 1),
    ModuliSet((4, 5), 1),
    ModuliSet((5, 7), 1),
    ModuliSet((2, 3, 5), 1),
    ModuliSet((2, 3, 5), 2),
    ModuliSet((3, 4, 5), 2),
    ModuliSet((2, 5, 7), 2),
    ModuliSet((3, 7, 8), 2),
    ModuliSet((5, 7, 11), 2),
    ModuliSet((7, 9, 11), 2),
    ModuliSet((2, 3, 5, 7), 2),
    ModuliSet((2, 3, 5, 7), 3),
    ModuliSet((3, 4, 5, 7), 3),
    ModuliSet((2, 5, 9, 11), 3),
    ModuliSet((5, 7, 8, 9), 2),
    ModuliSet((7, 11, 13, 15), 2),
    ModuliSet((2, 3, 5, 7, 11), 2),
    ModuliSet((2, 3, 5, 7, 11), 3),
    ModuliSet((3, 4, 5, 7, 11), 3),
    ModuliSet((5, 7, 9, 11, 13), 3),
    ModuliSet((16, 17, 19, 21, 23), 3),
]


def test_criterion_01_crt_round_trip():
    start = time.perf_counter()
    ok = True
    for moduli in MODULI_SETS:
        for m in range(moduli.payload_bound):
            if crt_reconstruct(encode_phi(m, moduli), moduli) != m:
                ok = False
    elapsed = time.perf_counter() - start
    _report(
        1,
        ok and elapsed < 1.0,
        f"{len(MODULI_SETS)} moduli sets, exhaustive round trip in {elapsed:.3f}s",
    )


def test_criterion_02_minimum_distance():
    bad = [
        moduli.p
        for moduli in MODULI_SETS
        if min_distance(moduli) != moduli.n - moduli.k + 1
    ]
    _report(
        2,
        not bad,
        f"min_distance == n-k+1 for {len(MODULI_SETS)} sets"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_03_single_error_exhaustive():
    moduli = ModuliSet((2, 3, 5, 7, 11), 3)
    total = failures = 0
    for m in range(moduli.payload_bound):
        cw = encode_phi(m, moduli)
        for j, p in enumerate(moduli.p):
            for wrong in range(p):
                if wrong == cw[j]:
                    continue
                vector = list(cw)
                vector[j] = wrong
                total += 1
                outcome = hamming_decode(vector, moduli)
                if outcome.m != m or outcome.status != "corrected":
                    failures += 1
    _report(3, failures == 0, f"{total} single-error vectors, {failures} failures")


def test_criterion_04_two_error_ml_correction():
    entries, moduli = fixtures.redundant_block_entries()
    rng = np.random.default_rng(4)
    trials = 1000
    ml_hits = 0
    hamming_hits_on_ambiguous = 0
    ambiguous = 0
    start = time.perf_counter()
    for t in range(trials):
        m = int(rng.integers(moduli.payload_bound))
        cw = encode_phi(m, moduli)
        params = channel.ChannelParams(seed=1000 * t + 1)
        vector, table = channel.inject_errors(cw, entries, 2, params)
        base = hamming_decode(vector, moduli)
        if base.status == "ambiguous-fail":
            ambiguous += 1
            hamming_hits_on_ambiguous += base.m == m  # always False by design
        outcome = ml_decode(vector, moduli, g=table)
        ml_hits += outcome.m == m
    elapsed = time.perf_counter() - start
    rate = ml_hits / trials
    ok = rate >= 0.95 and elapsed < 10.0 and hamming_hits_on_ambiguous == 0
    _report(
        4,
        ok,
        f"ml two-error recovery {rate:.1%} over {trials} trials "
        f"({ambiguous} ambiguous, Hamming 0 of those) in {elapsed:.1f}s",
    )


def test_criterion_05_analytic_curves():
    moduli = ModuliSet((2, 3, 5, 11, 13), 3)
    worst = 0.0
    lines = []
    for ml in (False, True):
        for p1 in (0.80, 0.90, 0.95):
            emp = fixtures.block_success_empirical(p1, moduli, ml=ml, trials=10_000)
            cum = block_success_cumulative(p1, ml=ml)
            printed = block_success_printed(p1, ml=ml)
            worst = max(worst, abs(emp - cum))
            lines.append(
                f"ml={ml} P1={p1}: empirical {emp:.3f}, cumulative {cum:.3f}, "
                f"printed {printed:.3f} (printed off by {abs(emp - printed):.3f})"
            )
    grid = np.linspace(0.55, 0.99, 23)
    dominates = all(
        block_success_cumulative(p, ml=True) > block_success_cumulative(p, ml=False)
        for p in grid
    )
    for line in lines:
        print("  " + line)
    ok = worst <= 0.02 and dominates
    _report(
        5,
        ok,
        f"empirical matches cumulative within {worst:.4f} <= 0.02; "
        f"ml curve dominates Hamming on (0.5, 1); printed single-term forms "
        f"diverge as reported above",
    )


def test_criterion_06_capacity():
    cb = fixtures.channel_codebook()
    rep = pipeline.capacity_report(
        cb, frequencies=fixtures.ENGLISH_FREQUENCIES, sample_blocks=100_000
    )
    bpl = rep["bits_per_letter"]
    need = rep["letters_for_128_bits"]
    # un-calibrated structural property: capacity is exactly the sum of the
    # per-block floor(log2 M_t)
    text = fixtures.random_text(150, seed=6)
    seq = pipeline.letter_sequence(text, cb)
    blocks = partition_blocks(seq)
    text_rep = pipeline.capacity_report(cb, text=text)
    structural = text_rep["total_bits"] == sum(
        b.moduli.payload_bound.bit_length() - 1 for b in blocks
    )
    ok = abs(bpl - 1.77) <= 0.05 and abs(need - 73) <= 3 and structural
    _report(
        6,
        ok,
        f"{bpl:.4f} bits/letter (target 1.77 +/- 0.05), "
        f"{need} letters for 128 bits (target 73 +/- 3), structural sum exact",
    )


def test_criterion_07_capacity_dominance():
    rng = np.random.default_rng(7)
    letters = 41_682
    caps = tuple(int(c) for c in rng.integers(8, 31, size=letters))
    seq = LetterSequence("x" * letters, caps, np.arange(letters), ("x",), np.zeros(letters, int))
    blocks = partition_blocks(seq)
    wins = sum(
        b.bit_width > baseline_block_bits([caps[i] for i in b.member_indices])
        for b in blocks
    )
    frac = wins / len(blocks)
    _report(
        7,
        frac >= 0.99,
        f"pipeline beats the per-block baseline on {frac:.2%} of "
        f"{len(blocks)} blocks ({letters} letters)",
    )


def test_criterion_08_end_to_end_round_trip():
    cb = fixtures.channel_codebook()
    rng = np.random.default_rng(8)
    clean_ok = 0
    trials = 1000
    for t in range(trials):
        letters = int(rng.integers(55, 110))
        text = fixtures.random_text(letters, seed=stable_seed(8, "text", t))
        width = int(rng.integers(0, 33))
        bits = "".join(rng.choice(["0", "1"], size=width))
        doc = pipeline.embed(text, cb, bits)
        recovered, _ = pipeline.extract(doc, cb)
        clean_ok += recovered == bits

    noisy_cb = fixtures.fixture_codebook(
        {"v": 2, "w": 3, "x": 5, "y": 29, "z": 31}, font_id="chain-redundant"
    )
    text = ("vwxyz " * 12).strip()
    noisy_trials = 250
    noisy_ok = 0
    for t in range(noisy_trials):
        bits = "".join(rng.choice(["0", "1"], size=8))
        doc = pipeline.embed(text, noisy_cb, bits)
        block_params = (
            channel.ChannelParams(seed=stable_seed(8, "noise", t, b)) for b in itertools.count()
        )
        noisy_doc, rows = channel.simulate_document(doc, noisy_cb, 2, block_params)
        recovered, _ = pipeline.extract(noisy_doc, noisy_cb, likelihoods=rows)
        noisy_ok += recovered == bits
    noisy_rate = noisy_ok / noisy_trials
    ok = clean_ok == trials and noisy_rate >= 0.95
    _report(
        8,
        ok,
        f"zero-noise {clean_ok}/{trials} exact; two errors in every block "
        f"{noisy_rate:.1%} exact over {noisy_trials} documents",
    )


def _dp_max_clique_size(n: int, adj: list[int]) -> int:
    """Exhaustive subset dynamic program: S is a clique iff S minus its lowest
    node is a clique fully adjacent to that node."""
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    best = 0
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        if is_clique[rest] and (adj[v] & rest) == rest:
            is_clique[s] = 1
            c = s.bit_count()
            if c > best:
                best = c
    return best


def test_criterion_09_codebook_construction():
    rng = np.random.default_rng(9)
    clique_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 21))
        density = float(rng.uniform(0.3, 0.9))
        g = ConfusionGraph(range(n))
        adj = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() > density:
                    g.remove_edge(a, b)
                else:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        found = max_clique(g)
        valid = all(g.has_edge(a, b) for i, a in enumerate(found) for b in found[i + 1 :])
        if not valid or len(found) != _dp_max_clique_size(n, adj):
            clique_ok = False

    # fixture candidates with two confusable close pairs; must settle within
    # the documented five iterations and keep only >= 0.95 pairs
    params = channel.ChannelParams(trials=300)
    oracle, per_glyph = channel.make_codebook_oracles(params)
    offsets = [0.0, 0.3, 1.5, 3.0, 4.5, 4.8]
    cands = {"a": fixtures.chain_candidates("a", offsets)}
    cb = build_codebook(
        cands, oracle, per_glyph, {"a": cands["a"][0]}, max_iterations=5
    )
    glyphs = cb.entries["a"].glyphs
    pruned = 1 < len(glyphs) < len(offsets)
    check = channel.ChannelParams(trials=500, seed=99)
    pair_accs = [
        channel.accuracy_oracle([ga.outline, gb.outline], check)
        for i, ga in enumerate(glyphs)
        for gb in glyphs[i + 1 :]
    ]
    pairs_ok = min(pair_accs) >= 0.95
    ok = clique_ok and pruned and pairs_ok
    _report(
        9,
        ok,
        f"max_clique matched the subset-DP oracle on 100 graphs (|V| <= 20); "
        f"construction kept {len(glyphs)}/{len(offsets)} candidates within 5 "
        f"iterations, worst retained-pair accuracy {min(pair_accs):.3f}",
    )


def test_criterion_10_perceptual_fit():
    rng = np.random.default_rng(10)
    # a shuffled evenly spaced grid of planted scores: 16 questions per rater
    # only pin down the ordering when adjacent scores are separated
    order = rng.permutation(20)
    planted_s = {f"g{i:02d}": float(order[i] / 19.0) for i in range(20)}
    planted_r = {f"u{i:03d}": float(rng.normal(-8.0, 1.0)) for i in range(200)}
    responses = perceptual.synth_responses(
        planted_s, planted_r, questions_per_rater=16, seed=10
    )
    scores, _, info = perceptual.fit(
        responses, perceptual.FitConfig(max_iterations=5000)
    )
    names = sorted(planted_s)
    tau = kendalltau(
        [planted_s[g] for g in names], [scores.s[g] for g in names]
    ).statistic

    # analytic gradients against central finite differences
    n_g, n_u, n_resp = 8, 5, 80
    idx_i = rng.integers(0, n_g, n_resp)
    idx_j = (idx_i + 1 + rng.integers(0, n_g - 1, n_resp)) % n_g
    idx_u = rng.integers(0, n_u, n_resp)
    q = rng.integers(0, 2, n_resp).astype(float)
    s = rng.normal(0.5, 0.5, n_g)
    r = rng.normal(0.0, 2.0, n_u)
    _, gs, gr = perceptual.objective_and_gradients(s, r, idx_i, idx_j, idx_u, q, 1e-6)
    h = 1e-6
    worst_rel = 0.0
    for vec, grad, is_s in ((s, gs, True), (r, gr, False)):
        for p in range(len(vec)):
            plus, minus = vec.copy(), vec.copy()
            plus[p] += h
            minus[p] -= h
            if is_s:
                vp, _, _ = perceptual.objective_and_gradients(plus, r, idx_i, idx_j, idx_u, q, 1e-6)
                vm, _, _ = perceptual.objective_and_gradients(minus, r, idx_i, idx_j, idx_u, q, 1e-6)
            else:
                vp, _, _ = perceptual.objective_and_gradients(s, plus, idx_i, idx_j, idx_u, q, 1e-6)
                vm, _, _ = perceptual.objective_and_gradients(s, minus, idx_i, idx_j, idx_u, q, 1e-6)
            fd = (vp - vm) / (2 * h)
            denom = max(abs(fd), 1e-4)
            worst_rel = max(worst_rel, abs(grad[p] - fd) / denom)
    ok = tau >= 0.9 and worst_rel < 1e-5
    _report(
        10,
        ok,
        f"planted recovery Kendall tau {tau:.3f} (200 raters x 16 questions, "
        f"{info['iterations']} iterations); worst gradient mismatch {worst_rel:.2e}",
    )


def test_criterion_11_crypto():
    cb = fixtures.channel_codebook()
    round_trip_ok = True
    for seed in range(5):
        key = crypto.keygen(cb, seed=seed)
        for ch in cb.characters():
            for v in range(cb.capacity(ch)):
                if key.inverse(ch, key.forward(ch, v)) != v:
                    round_trip_ok = False

    text = fixtures.random_text(70, seed=11)
    bits = "101101110010"
    corrupt = 0
    trials = 1000
    for t in range(trials):
        key = crypto.keygen(cb, seed=2 * t)
        wrong = crypto.keygen(cb, seed=2 * t + 1)
        doc = pipeline.embed(text, cb, bits, key=key)
        try:
            pipeline.extract(doc, cb, key=wrong)
        except CorruptFrameError:
            corrupt += 1

    sig_cb = fixtures.signature_codebook()
    sig_text = fixtures.random_text(264, seed=12)
    sig_key = crypto.keygen(sig_cb, seed=13)
    config = crypto.SignatureConfig()
    signed = crypto.sign_scheme1(sig_text, sig_cb, sig_key, config)
    segments = crypto.segment_text(sig_text, sig_cb, config)
    seq = pipeline.letter_sequence(sig_text, sig_cb)
    rng = np.random.default_rng(11)
    letters = sorted(sig_cb.characters())
    localized = 0
    for _ in range(100):
        i = int(rng.integers(len(seq.letters)))
        pos = seq.positions[i]
        alt = letters[int(rng.integers(len(letters)))]
        while alt == sig_text[pos]:
            alt = letters[int(rng.integers(len(letters)))]
        tampered_text = sig_text[:pos] + alt + sig_text[pos + 1 :]
        tampered = pipeline.EncodedDocument(
            tampered_text, signed.glyph_indices, signed.codebook_id
        )
        report = crypto.verify(tampered, sig_cb, config, key=sig_key)
        expected = [
            "mismatch" if s.seq_start <= i < s.seq_end else "match" for s in segments
        ]
        if [r.status for r in report.per_segment] == expected:
            localized += 1

    space_ok = True
    for cap in range(1, 21):
        toy = fixtures.fixture_codebook({"a": cap})
        exact = math.log2(math.factorial(cap))
        if abs(crypto.key_space_bits(toy) - exact) > 1e-9 * max(exact, 1.0):
            space_ok = False

    ok = round_trip_ok and corrupt >= 999 and localized == 100 and space_ok
    _report(
        11,
        ok,
        f"key round trips exact; wrong-key corrupt-frame {corrupt}/{trials}; "
        f"tamper localization {localized}/100; key-space bits match factorials "
        f"for N <= 20",
    )


def test_criterion_12_decode_benchmark(capsys):
    import json

    code = cli.main(["bench"])
    out = capsys.readouterr().out
    report = json.loads(out)
    ok = code == 0 and report["exact"] and report["seconds"] < 0.9
    _report(
        12,
        ok,
        f"{report['letters']}-letter decode in {report['seconds'] * 1000:.1f} ms "
        f"(< 900 ms), exact recovery",
    )
