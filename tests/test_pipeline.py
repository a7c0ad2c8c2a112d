import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    BEYOND_INT64,
    GLYPH_CHANGES,
    IndexKey,
    dfs_choose_moduli,
    loop_blocks,
    loop_decode_blocks,
    loop_embed,
    loop_encode_blocks,
    loop_extract,
    loop_letter_sequence,
    loop_partition_blocks,
    oracle_choose,
    outcome,
)

from glyphcode import crc, fixtures, pipeline
from glyphcode.crypto import keygen
from glyphcode.errors import (
    CapacityExceededError,
    ContractViolation,
    CorruptFrameError,
    DocumentTooSmallError,
    KeyMismatchError,
    PartialDecodeError,
)
from glyphcode.pipeline import (
    LetterSequence,
    baseline_block_bits,
    choose_moduli,
    chunk_message,
    embed,
    extract,
    frame_message,
    letter_sequence,
    partition_blocks,
    unframe_message,
)


def test_choose_moduli_examples():
    m = choose_moduli((2, 3, 5, 7, 11), 3)
    assert m.p == (2, 3, 5, 7, 11) and m.payload_bound == 30
    assert choose_moduli((4, 4, 4, 4, 4), 3) is None
    m = choose_moduli((30, 30, 30, 30, 30), 3)
    obj, _ = oracle_choose((30, 30, 30, 30, 30), 3)
    assert m.payload_bound == obj


def test_choose_moduli_matches_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(40):
        caps = tuple(int(c) for c in rng.integers(2, 15, size=5))
        m = choose_moduli(caps, 3)
        obj, witness = oracle_choose(caps, 3)
        if m is None:
            assert obj == 0
        else:
            assert m.payload_bound == obj
            # first-found in descending order = lexicographically largest
            assert m.p == witness


def test_choose_moduli_matches_dfs_oracle():
    """The pruned search returns exactly the assignment of the DFS that tries
    every value after its bound fails: capacities 1-45, n 2-6, every k."""
    rng = np.random.default_rng(1)
    cases = 0
    for _ in range(80):
        n = int(rng.integers(2, 7))
        caps = tuple(int(c) for c in rng.integers(1, 46, size=n))
        for k in range(1, n):
            assert choose_moduli(caps, k) == dfs_choose_moduli(caps, k), (caps, k)
            cases += 1
    assert cases > 250


def test_choose_moduli_validation():
    with pytest.raises(ContractViolation):
        choose_moduli((5,), 1)
    with pytest.raises(ContractViolation):
        choose_moduli((5, 5), 2)


def _seq(caps):
    return LetterSequence(tuple("x" * len(caps)), tuple(caps), tuple(range(len(caps))))


def test_partition_direct_success():
    blocks = partition_blocks(_seq((2, 3, 5, 7, 11)))
    assert len(blocks) == 1
    assert blocks[0].member_indices == (0, 1, 2, 3, 4)
    assert blocks[0].skipped_indices == ()


def test_partition_expansion_rule():
    # the first five capacities admit no coprime assignment; dropping the
    # min-capacity letter (index 2) and pulling in the sixth succeeds
    caps = (8, 9, 5, 7, 6, 11)
    assert choose_moduli(caps[:5], 3) is None
    blocks = partition_blocks(_seq(caps))
    assert len(blocks) == 1
    assert blocks[0].member_indices == (0, 1, 3, 4, 5)
    assert blocks[0].skipped_indices == (2,)
    obj, _ = oracle_choose((8, 9, 7, 6, 11), 3)
    assert blocks[0].payload_bound == obj


def test_partition_trailing_uncoded():
    caps = (2, 3, 5, 7, 11) * 2 + (13, 17)
    blocks = partition_blocks(_seq(caps))
    assert len(blocks) == 2
    covered = {i for b in blocks for i in b.member_indices + b.skipped_indices}
    assert covered == set(range(10))  # letters 10, 11 carry no payload


def test_frame_and_unframe():
    framed = frame_message("", 40)
    assert framed == "0" * 40
    assert unframe_message(framed) == ""
    framed = frame_message("10110001", 48)
    assert framed[:32] == format(8, "032b")
    assert framed[32:40] == "10110001"
    assert unframe_message(framed) == "10110001"
    with pytest.raises(CapacityExceededError):
        frame_message("1" * 20, 40)
    with pytest.raises(CorruptFrameError):
        unframe_message(format(99, "032b") + "1010")


def test_frame_message_refuses_anything_but_bits():
    for bits in ("1021", "1 0", "\uff11"):  # the last is a full-width digit one
        with pytest.raises(ContractViolation, match="bit string"):
            frame_message(bits, 64)
    assert frame_message("", 40) == "0" * 40


def test_chunk_message():
    # hand-computed split of 13 bits across widths (4, 5, 4)
    widths = (4, 5, 4)
    bits = "1011001110001"

    class W:
        def __init__(self, w):
            self.bit_width = w

    out = chunk_message(bits, [W(w) for w in widths])
    assert out == [int("1011", 2), int("00111", 2), int("0001", 2)]
    assert chunk_message("0" * 13, [W(w) for w in widths]) == [0, 0, 0]
    assert chunk_message("1111", [W(4)]) == [15]


@pytest.fixture(scope="module")
def codebook():
    return fixtures.channel_codebook()


def test_embed_extract_round_trip(codebook):
    text = fixtures.random_text(60, seed=1)
    bits = "110100111000101"
    doc = embed(text, codebook, bits)
    recovered, report = extract(doc, codebook)
    assert recovered == bits
    assert all(o.status == "exact" for o in report)


def test_embed_empty_message(codebook):
    text = fixtures.random_text(60, seed=2)
    doc = embed(text, codebook, "")
    recovered, _ = extract(doc, codebook)
    assert recovered == ""


def test_embed_capacity_exceeded(codebook):
    text = fixtures.random_text(40, seed=3)
    with pytest.raises(CapacityExceededError):
        embed(text, codebook, "1" * 4000)


def test_embed_too_small(codebook):
    with pytest.raises(DocumentTooSmallError):
        embed("zq", codebook, "1")
    with pytest.raises(DocumentTooSmallError):
        embed("0123 456!", codebook, "1")


def test_layout_determinism(codebook):
    text = fixtures.random_text(200, seed=4)
    seq = letter_sequence(text, codebook)
    b1 = partition_blocks(seq)
    b2 = partition_blocks(letter_sequence(text, codebook))
    assert b1 == b2


def test_128_bit_payload_in_english_text(codebook):
    rng = np.random.default_rng(5)
    bits = "".join(rng.choice(["0", "1"], size=128))
    # 73 letters is the capacity estimate for the payload alone; framing adds
    # a 32-bit prefix, so use a little more text
    text = fixtures.random_text(105, seed=6)
    doc = embed(text, codebook, bits)
    recovered, _ = extract(doc, codebook)
    assert recovered == bits


@settings(max_examples=25, deadline=None)
@given(payload=st.binary(min_size=0, max_size=8), seed=st.integers(0, 999))
def test_round_trip_property(payload, seed):
    cb = fixtures.channel_codebook()
    bits = "".join(format(b, "08b") for b in payload)
    text = fixtures.random_text(80, seed=seed)
    doc = embed(text, cb, bits)
    recovered, _ = extract(doc, cb)
    assert recovered == bits


def test_capacity_report_text_mode(codebook):
    text = fixtures.random_text(100, seed=7)
    rep = pipeline.capacity_report(codebook, text=text)
    seq = letter_sequence(text, codebook)
    blocks = partition_blocks(seq)
    assert rep["total_bits"] == sum(b.bit_width for b in blocks)
    assert rep["letters"] == len(seq.letters)


def test_capacity_report_monte_carlo(codebook):
    rep = pipeline.capacity_report(
        codebook, frequencies=fixtures.ENGLISH_FREQUENCIES, sample_blocks=5000
    )
    assert 1.6 < rep["bits_per_letter"] < 2.0
    with pytest.raises(ContractViolation):
        pipeline.capacity_report(codebook)


def test_capacity_monotone_in_letters(codebook):
    base = fixtures.random_text(80, seed=8)
    longer = base + fixtures.random_text(40, seed=9)
    r1 = pipeline.capacity_report(codebook, text=base)
    r2 = pipeline.capacity_report(codebook, text=longer)
    assert r2["total_bits"] >= r1["total_bits"]


def test_baseline_block_bits():
    caps = (8, 8, 8, 8, 8)
    assert baseline_block_bits(caps) == 5 * 3 - 2 * 3
    assert baseline_block_bits((16, 4, 4, 4, 4)) == (4 + 2 * 4) - 2 * 4


@pytest.mark.parametrize("sample_blocks", [200, 1000])
def test_capacity_report_monte_carlo_stays_inside_the_draws(sample_blocks):
    """A sample that runs out of draws reports the blocks it did sample:
    no short windows, no reused draws."""
    cb = fixtures.fixture_codebook({"a": 2, "b": 31})
    n = 5
    rep = pipeline.capacity_report(
        cb, frequencies={"a": 0.8, "b": 0.2}, n=n, sample_blocks=sample_blocks
    )
    assert 0 < rep["letters"] <= sample_blocks * (n + 4)
    assert rep["total_bits"] > 0
    assert rep["bits_per_letter"] == rep["total_bits"] / rep["letters"]


def test_impossible_block_size_is_refused_at_once():
    """The fixture codebook's largest capacity is 13, with six primes up to
    it, so no window of 10,000 letters takes pairwise-coprime moduli >= 2;
    the partition yields nothing without searching a window."""
    cb = fixtures.channel_codebook()
    assert max(cb.capacity(ch) for ch in cb.characters()) == 13
    start = time.perf_counter()
    with pytest.raises(ContractViolation, match="cannot form coprime blocks"):
        pipeline.capacity_report(
            cb, frequencies=fixtures.ENGLISH_FREQUENCIES, n=10_000, sample_blocks=1
        )
    with pytest.raises(DocumentTooSmallError, match="zero complete blocks"):
        embed(fixtures.random_text(10_500, seed=3), cb, "1", n=10_000)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [6, 7, 8])
def test_blocks_around_the_prime_count_match_letter_loop_oracle(n):
    """Six primes up to 13: n = 6 can still form blocks, n = 7 and 8 cannot."""
    cb = fixtures.channel_codebook()
    caps = letter_sequence(fixtures.random_text(300, seed=3), cb).capacities
    got = pipeline._build_layout(caps, n, 3).blocks()
    assert got == list(loop_blocks(caps, n, 3))
    assert bool(got) == (n == 6)


def test_layout_holds_one_set_per_distinct_capacity_tuple():
    """On a text with many skips, the layout holds one moduli set per
    distinct member-capacity tuple, in first-use order, each the object the
    moduli search's cache returned for it, also where an expanded block and
    an aligned one have the same tuple."""
    capacity = {"a": 1, "b": 2, "c": 3, "d": 5, "e": 7, "f": 11}
    freqs = {"a": 0.2, "b": 0.1, "c": 0.2, "d": 0.2, "e": 0.15, "f": 0.15}
    text = fixtures.random_text(10_000, seed=7, frequencies=freqs)
    caps = [capacity[ch] for ch in text if ch in capacity]
    layout = pipeline._build_layout(caps, 5, 3)
    blocks = layout.blocks()
    assert blocks == list(loop_blocks(caps, 5, 3))
    tuples = [tuple(caps[i] for i in b.member_indices) for b in blocks]
    first_use = {t: s for s, t in enumerate(dict.fromkeys(tuples))}
    assert layout.set_ids.tolist() == [first_use[t] for t in tuples]
    assert len(layout.sets) == len(first_use)
    assert len({id(s) for s in layout.sets}) == len(layout.sets)
    for moduli, t in zip(layout.sets, first_use):
        assert moduli is pipeline._choose_moduli_cached(t, 3)
    aligned = {t for t, b in zip(tuples, blocks) if not b.skipped_indices}
    assert any(t in aligned for t, b in zip(tuples, blocks) if b.skipped_indices)


# capacity 1 ("a") admits no modulus, so windows holding it drop letters; the
# non-ASCII "é" is a codebook letter, the other non-ASCII characters are not
DIFF_CAPACITIES = {"a": 1, "b": 2, "c": 3, "d": 5, "é": 4, "f": 7, "g": 11}
DIFF_CODEBOOK = fixtures.fixture_codebook(DIFF_CAPACITIES, seed=2)
DIFF_TEXTS = st.text(alphabet="abcdéfg" * 3 + " 1日\n€", max_size=160)


@settings(max_examples=200, deadline=None)
@given(text=DIFF_TEXTS, nk=st.sampled_from([(5, 3), (4, 2), (3, 1), (2, 1)]))
def test_layout_matches_letter_loop_oracle(text, nk):
    """The letter sequence and the block partition, also over a capacity
    list as the Monte-Carlo estimate passes it, are the per-letter ones."""
    n, k = nk
    seq = letter_sequence(text, DIFF_CODEBOOK)
    assert seq == loop_letter_sequence(text, DIFF_CODEBOOK)
    for caps in (seq.capacities, list(seq.capacities)):
        assert pipeline._build_layout(caps, n, k).blocks() == list(loop_blocks(caps, n, k))
    assert outcome(partition_blocks, seq, n, k) == outcome(loop_partition_blocks, seq, n, k)


def _tamper(doc, changes):
    """The document with glyph index i replaced by v for each (i, v)."""
    indices = list(doc.glyph_indices)
    for i, v in changes:
        indices[i % len(indices)] = v
    return pipeline.EncodedDocument(doc.text, tuple(indices), doc.codebook_id)


@settings(max_examples=200, deadline=None)
@given(
    text=DIFF_TEXTS,
    bits=st.text(alphabet="01", max_size=24),
    key_seed=st.none() | st.integers(0, 50),
    changes=GLYPH_CHANGES,
    rows_seed=st.none() | st.integers(0, 50),
)
def test_codec_matches_letter_loop_oracle(text, bits, key_seed, changes, rows_seed):
    """Embed and extract return the per-letter path's documents and reports,
    or raise its errors, with and without a key and a likelihood table, on
    documents with changed and out-of-range glyph indices."""
    key = None if key_seed is None else keygen(DIFF_CODEBOOK, seed=key_seed)
    loop_key = None if key is None else IndexKey(key)
    got = outcome(embed, text, DIFF_CODEBOOK, bits, key=key)
    assert got == outcome(loop_embed, text, DIFF_CODEBOOK, bits, key=loop_key)
    if got[0] != "returned":
        return
    doc = _tamper(got[1], changes)
    rows = None
    if rows_seed is not None:
        rng = np.random.default_rng(rows_seed)
        rows = [rng.random(c) + 0.01 for c in letter_sequence(text, DIFF_CODEBOOK).capacities]
    assert outcome(extract, doc, DIFF_CODEBOOK, key=key, likelihoods=rows) == outcome(
        loop_extract, doc, DIFF_CODEBOOK, key=loop_key, likelihoods=rows
    )


@pytest.mark.parametrize("value", BEYOND_INT64)
def test_glyph_index_beyond_int64_is_an_erasure(codebook, value):
    """A glyph index no int64 holds reads as a misread letter: its block is
    corrected, the message comes back, and the per-letter path agrees."""
    text = fixtures.random_text(300, seed=4)
    bits = "1011001110001111"
    bad = _tamper(embed(text, codebook, bits), [(7, value)])
    got, report = extract(bad, codebook)
    assert got == bits
    blocks = partition_blocks(letter_sequence(text, codebook))
    t = next(t for t, b in enumerate(blocks) if 7 in b.member_indices)
    assert report[t].status == "corrected"
    assert outcome(extract, bad, codebook) == outcome(loop_extract, bad, codebook)


# capacities 5-13 with 250-300 at n = 8, k = 3: every word forms a block; a
# word of wide letters alone takes moduli whose n * max(p) * P passes 2^62,
# so its block decodes on its own, and a word that mixes both does not
WIDE_CODEBOOK = fixtures.fixture_codebook(
    {"a": 5, "b": 7, "c": 11, "d": 13, "e": 9, "v": 250, "w": 263, "x": 277, "y": 289, "z": 300},
    seed=3,
)
WIDE_WORDS = (
    "vwxyzvwx", "zyxwvzyx", "yzvwxyzv", "abcdvwxy", "vawbxcyd", "evwxabyz", "abcvwxyz", "vwxyzabc",
)


def test_wide_document_mixes_both_decode_paths():
    caps = letter_sequence(" ".join(WIDE_WORDS), WIDE_CODEBOOK).capacities
    layout = pipeline._build_layout(caps, 8, 3)
    assert len(layout.widths) == len(WIDE_WORDS)
    in_int64 = pipeline._garner(layout)[3][layout.set_ids]
    assert in_int64.tolist() == [False] * 3 + [True] * 5


def test_long_wide_document_matches_letter_loop_oracle():
    """Forty 8-letter words whose capacities span 5-300, so that the
    partition's window keys pass int64 and are Python integers, partition
    and code as the per-letter path does."""
    text = " ".join(WIDE_WORDS * 5)
    caps = letter_sequence(text, WIDE_CODEBOOK).capacities
    assert (max(caps) - min(caps) + 1) ** 8 >= 2**63
    assert pipeline._build_layout(caps, 8, 3).blocks() == list(loop_blocks(caps, 8, 3))
    bits = "10" * 100
    doc = embed(text, WIDE_CODEBOOK, bits, 8, 3)
    assert doc == loop_embed(text, WIDE_CODEBOOK, bits, 8, 3)
    bad = _tamper(doc, [(3, 2**63), (100, 1)])
    assert outcome(extract, bad, WIDE_CODEBOOK, 8, 3) == outcome(
        loop_extract, bad, WIDE_CODEBOOK, 8, 3
    )


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(st.sampled_from(WIDE_WORDS), min_size=1, max_size=10),
    bits=st.text(alphabet="01", max_size=64),
    key_seed=st.none() | st.integers(0, 50),
    changes=GLYPH_CHANGES,
    rows_seed=st.none() | st.integers(0, 50),
)
def test_codec_past_the_int64_guard_matches_letter_loop_oracle(
    words, bits, key_seed, changes, rows_seed
):
    """Embed and extract at n = 8, k = 3 over blocks on both sides of the
    int64 guard return the per-letter path's documents and reports, or
    raise its errors."""
    text = " ".join(words)
    key = None if key_seed is None else keygen(WIDE_CODEBOOK, seed=key_seed)
    loop_key = None if key is None else IndexKey(key)
    got = outcome(embed, text, WIDE_CODEBOOK, bits, 8, 3, key=key)
    assert got == outcome(loop_embed, text, WIDE_CODEBOOK, bits, 8, 3, key=loop_key)
    if got[0] != "returned":
        return
    doc = _tamper(got[1], changes)
    rows = None
    if rows_seed is not None:
        rng = np.random.default_rng(rows_seed)
        rows = [rng.random(c) + 0.01 for c in letter_sequence(text, WIDE_CODEBOOK).capacities]
    assert outcome(extract, doc, WIDE_CODEBOOK, 8, 3, key=key, likelihoods=rows) == outcome(
        loop_extract, doc, WIDE_CODEBOOK, 8, 3, key=loop_key, likelihoods=rows
    )


def test_payloads_wider_than_int64_are_python_integers():
    """Blocks whose payload bound passes 2^63 are cut, encoded and decoded
    as Python integers, as the per-letter path does."""
    caps = (3_000_001, 3_000_011, 3_000_013, 3_000_019, 3_000_023)
    seq = LetterSequence(tuple("vwxyz" * 3), caps * 3, tuple(range(15)))
    layout = pipeline._build_layout(seq.capacities, 5, 3)
    blocks = layout.blocks()
    assert blocks == loop_partition_blocks(seq, 5, 3)
    assert min(b.bit_width for b in blocks) > 62
    rng = np.random.default_rng(16)
    framed = "".join(rng.choice(["0", "1"], size=sum(b.bit_width for b in blocks) - 9))
    payloads = pipeline._chunk(framed, layout.widths)
    assert payloads.tolist() == chunk_message(framed, blocks)
    cb = fixtures.fixture_codebook({"a": 2})  # read only for a key
    values = pipeline._encode(seq, layout, payloads, cb)
    assert values == loop_encode_blocks(seq, blocks, payloads.tolist())
    for changed in ([], [(1, 5)], [(1, 5), (6, 2**70)]):
        received = list(values)
        for i, v in changed:
            received[i] = v
        decoded, slow, failed = pipeline._decode(seq, layout, received)
        want_bits, want_report = loop_decode_blocks(seq, blocks, received)
        assert failed == [None]
        assert pipeline._bits(decoded, layout.widths) == want_bits
        assert want_bits == framed.ljust(len(want_bits), "0")
        assert [slow[t] for t in sorted(slow)] == want_report


def test_extract_raises_at_a_tie_no_likelihood_resolves(codebook):
    """A block whose Hamming decode ties, under a trace that gives each
    letter's received glyph all the likelihood, scores every tied candidate
    at zero, stays ambiguous and stops extract at that block."""
    text = fixtures.random_text(200, seed=7)
    doc = embed(text, codebook, "1011001110001111")
    seq = letter_sequence(text, codebook)
    t = 1
    block = partition_blocks(seq)[t]
    members = block.member_indices
    sent = [doc.glyph_indices[i] for i in members]

    def tie():  # the first two-letter change that leaves a tie
        for a, b in itertools.combinations(range(len(members)), 2):
            for va in range(block.moduli.p[a]):
                for vb in range(block.moduli.p[b]):
                    vector = list(sent)
                    vector[a], vector[b] = va, vb
                    if crc.hamming_decode(vector, block.moduli).status == "ambiguous-fail":
                        return [(members[a], va), (members[b], vb)]
        raise AssertionError("no two-letter change ties")

    tampered = _tamper(doc, tie())
    rows = [np.eye(cap)[v] for cap, v in zip(seq.capacities, tampered.glyph_indices)]
    with pytest.raises(PartialDecodeError) as err:
        extract(tampered, codebook, likelihoods=rows)
    assert err.value.block_index == t


def _tie(doc, block):
    """The first two-letter change of ``block`` that leaves a Hamming tie."""
    members = block.member_indices
    sent = [doc.glyph_indices[i] for i in members]
    for a, b in itertools.combinations(range(len(members)), 2):
        for va in range(block.moduli.p[a]):
            for vb in range(block.moduli.p[b]):
                vector = list(sent)
                vector[a], vector[b] = va, vb
                if crc.hamming_decode(vector, block.moduli).status == "ambiguous-fail":
                    return [(members[a], va), (members[b], vb)]
    raise AssertionError("no two-letter change ties")


def test_extract_names_the_first_of_several_failed_blocks(codebook):
    """With blocks 1 and 3 left tied under a trace that resolves no tie,
    PartialDecodeError names block 1, as the per-letter path does."""
    text = fixtures.random_text(200, seed=7)
    doc = embed(text, codebook, "1011001110001111")
    seq = letter_sequence(text, codebook)
    blocks = partition_blocks(seq)
    tampered = _tamper(doc, _tie(doc, blocks[3]) + _tie(doc, blocks[1]))
    rows = [np.eye(cap)[v] for cap, v in zip(seq.capacities, tampered.glyph_indices)]
    with pytest.raises(PartialDecodeError) as err:
        extract(tampered, codebook, likelihoods=rows)
    assert err.value.block_index == 1
    assert outcome(extract, tampered, codebook, likelihoods=rows) == outcome(
        loop_extract, tampered, codebook, likelihoods=rows
    )


def test_extract_checks_rows_and_key_in_letter_order():
    """With a likelihood table and a key, extract raises for the first letter
    whose row has the wrong length or whose glyph index the key refuses, the
    row first at one letter, as the per-letter path does."""
    text = "gfé日d" * 30
    key = keygen(DIFF_CODEBOOK, seed=6)
    doc = embed(text, DIFF_CODEBOOK, "10110", key=key)
    caps = letter_sequence(text, DIFF_CODEBOOK).capacities
    j = len(caps) // 2
    errors = set()
    for i in (j - 1, j, j + 1):
        rows = [np.full(c, 1.0 / c) for c in caps]
        rows[i] = np.ones(caps[i] + 1)
        bad = _tamper(doc, [(j, caps[j])])
        got = outcome(extract, bad, DIFF_CODEBOOK, key=key, likelihoods=rows)
        assert got == outcome(loop_extract, bad, DIFF_CODEBOOK, key=IndexKey(key), likelihoods=rows)
        errors.add(got[0])
    assert errors == {ContractViolation, KeyMismatchError}


class _CountingMath:
    """``math`` with a count of ``prod`` calls."""

    def __init__(self):
        self.prods = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def prod(self, *args, **kwargs):
        self.prods += 1
        return math.prod(*args, **kwargs)


def test_extract_derives_each_payload_bound_once(codebook, monkeypatch):
    """An extract that meets its moduli sets fresh derives each one's payload
    bound once, however many blocks, widths and residues read it."""
    text = fixtures.random_text(600, seed=13)
    doc = embed(text, codebook, "1100101")
    pipeline._choose_moduli_cached.cache_clear()
    counting = _CountingMath()
    monkeypatch.setattr(crc, "math", counting)
    assert extract(doc, codebook)[0] == "1100101"
    blocks = partition_blocks(letter_sequence(text, codebook))
    assert counting.prods == len({id(b.moduli) for b in blocks}) < len(blocks)


def test_full_moduli_cache_memory_is_bounded():
    """4096 distinct moduli sets, each holding what it derives once, fill the
    moduli search's cache within a fixed budget while a block of each is
    encoded and decoded."""
    rng = np.random.default_rng(14)
    tuples = set()
    while len(tuples) < 4096:
        tuples.add(tuple(int(c) for c in rng.integers(15, 41, size=5)))
    pipeline._choose_moduli_cached.cache_clear()
    tracemalloc.start()
    try:
        for caps in tuples:
            moduli = pipeline._choose_moduli_cached(caps, 3)
            m = moduli.payload_bound - 1
            assert crc.hamming_decode(crc.encode_phi(m, moduli), moduli).m == m
        assert pipeline._choose_moduli_cached.cache_info().currsize == 4096
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        pipeline._choose_moduli_cached.cache_clear()
    # 1460 KB when every access derived the payload bound afresh, plus 0.5 MB
    assert held < (1460 + 512) * 1024, f"{held / 1024:.0f} KB"
