import itertools
import math
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
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

from glyphcode import channel, crc, fixtures, pipeline
from glyphcode.crypto import SignatureConfig, keygen, segment_text, sign_scheme1, verify
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


@pytest.mark.parametrize(
    "capacities, k",
    [((5.9, 7.2, 11), 1), ((5, 7.0, 11), 1), ((5, True, 11), 1), ((5, 7, 11), 1.5), ((5, 7, 11), True)],
)
def test_choose_moduli_refuses_values_that_are_not_integers(capacities, k):
    with pytest.raises(ContractViolation, match="must be an integer"):
        choose_moduli(capacities, k)


def test_choose_moduli_takes_numpy_integers():
    assert choose_moduli(tuple(np.array([5, 7, 11])), np.int64(1)) == choose_moduli((5, 7, 11), 1)


def _seq(caps, letters=None):
    """A letter record with the given capacities at positions 0, 1, ...;
    every letter is "x" unless ``letters`` are given."""
    letters = "x" * len(caps) if letters is None else letters
    chars = tuple(sorted(set(letters)))
    ids = np.array([chars.index(ch) for ch in letters], dtype=np.intp)
    return LetterSequence(letters, tuple(caps), np.arange(len(caps)), chars, ids)


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
    assert blocks[0].moduli.payload_bound == obj


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
    with pytest.raises(ContractViolation, match="^message must be a bit string"):
        frame_message(b"01", 40)
    for total_bits in (40.5, True, None):
        with pytest.raises(ContractViolation, match="^total_bits must be an integer"):
            frame_message("1", total_bits)
    for framed in (40.5, True, None, b"01"):
        with pytest.raises(ContractViolation, match="^framed message must be a bit string"):
            chunk_message(framed, [])
    for bits in ("2" * 40, "\u00e9" * 40, "\ud800" * 40, "0" * 31 + "1" + "2"):
        with pytest.raises(ContractViolation, match="^message must be a bit string"):
            unframe_message(bits)


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


# empty, one bit and 2^k +- 1 bits; block widths on both sides of 62 bits,
# where payloads leave int64 for Python integers
CODEC_LENGTHS = sorted({0, 1} | {2**k + d for k in range(1, 13) for d in (-1, 1)})
CODEC_WIDTHS = (
    (1,), (2, 3), (61,), (62,), (63,), (62, 63), (1, 64, 2), (65, 127, 31, 62), (3,) * 9,
)


def test_frame_chunk_bits_and_unframe_match_string_oracle():
    """Framing, unframing, cutting into blocks and joining the blocks' bits
    give the string codec's results and errors, with ==."""
    rng = np.random.default_rng(24)

    def random_bits(length):
        return "".join(rng.choice(["0", "1"], size=length).tolist())

    for length in CODEC_LENGTHS:
        bits = random_bits(length)
        for total in (length, length + 31, length + 32, length + 33, length + 97):
            assert outcome(frame_message, bits, total) == outcome(
                oracles.string_frame_message, bits, total
            )
        framed = frame_message(bits, length + 40)
        for received in (framed, framed[: length + 31], framed[:31], framed[:32], bits):
            assert outcome(unframe_message, received) == outcome(
                oracles.string_unframe_message, received
            )
    for widths in CODEC_WIDTHS:
        blocks = [types.SimpleNamespace(bit_width=w) for w in widths]
        widths = np.array(widths, dtype=np.int64)
        total = int(widths.sum())
        for length in sorted({0, 1, total - 1, total, total + 1}):
            framed = random_bits(length)
            assert outcome(chunk_message, framed, blocks) == outcome(
                oracles.string_chunk_message, framed, blocks
            )
            if length > total:
                continue
            payloads = oracles.string_chunk(framed, widths)
            digits = pipeline._digits(framed.ljust(total, "0"))
            assert pipeline._chunk(digits, widths).tolist() == payloads.tolist()
            assert pipeline._text(pipeline._bits(payloads, widths)) == oracles.string_bits(
                payloads, widths
            )


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


@pytest.mark.parametrize("n, k", [(5, 7), (5, 5), (3, 0), (1, 1)])
def test_bad_block_shape_is_refused_on_every_call(codebook, n, k):
    """A bad (n, k) is refused also on a text of fewer than n letters and
    when no block is sampled, before any block is looked for."""
    with pytest.raises(ContractViolation, match="n >= 2"):
        pipeline.capacity_report(codebook, text="zq", n=n, k=k)
    with pytest.raises(ContractViolation, match="n >= 2"):
        pipeline.capacity_report(
            codebook, frequencies=fixtures.ENGLISH_FREQUENCIES, n=n, k=k, sample_blocks=0
        )
    with pytest.raises(ContractViolation, match="n >= 2"):
        embed("zq", codebook, "1", n=n, k=k)


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


def test_layout_searches_each_tuple_once_per_call(monkeypatch):
    """On a text with many skips, the walk asks the moduli search once for
    each window the per-letter partition tries, failed expansions included,
    in the order that partition first tries them."""
    capacity = {"a": 1, "b": 2, "c": 3, "d": 5, "e": 7, "f": 11}
    freqs = {"a": 0.2, "b": 0.1, "c": 0.2, "d": 0.2, "e": 0.15, "f": 0.15}
    text = fixtures.random_text(10_000, seed=7, frequencies=freqs)
    caps = [capacity[ch] for ch in text if ch in capacity]
    search = pipeline._choose_moduli_cached

    def counted(calls):
        def choose(window, k):
            calls.append(window)
            return search(window, k)

        return choose

    asked, tried = [], []
    monkeypatch.setattr(pipeline, "_choose_moduli_cached", counted(asked))
    monkeypatch.setattr(oracles, "_choose_moduli_cached", counted(tried))
    blocks = pipeline._build_layout(caps, 5, 3).blocks()
    assert blocks == list(loop_blocks(caps, 5, 3))
    assert len(set(asked)) == len(asked)
    assert asked == list(dict.fromkeys(tried))
    assert any(search(t, 3) is None for t in asked) and len(tried) > len(asked)


def _primes_with_failures(n, gaps, offset, tail):
    """The first n primes over and over, so that any n letters in a row take
    a moduli set, with a capacity-1 letter, which takes none, after each
    ``gaps[i]`` whole windows and ``offset`` more letters, then ``tail``
    more letters.  Each capacity-1 letter fails the window it falls in,
    which drops it and pulls in the next letter."""
    primes = itertools.cycle((2, 3, 5, 7, 11, 13)[:n])
    caps = []
    for gap in gaps:
        caps += itertools.islice(primes, gap * n + offset)
        caps.append(1)
    return caps + list(itertools.islice(primes, tail))


LAYOUT_SHAPES = [(2, 1), (3, 1), (4, 2), (5, 3), (6, 4)]


@pytest.mark.parametrize("n, k", LAYOUT_SHAPES)
@pytest.mark.parametrize(
    "gaps",
    [(0,), (0, 0, 0), (500,), (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64)],
    ids=["run-start", "back-to-back", "mid-run", "powers-of-two"],
)
def test_layout_failures_across_aligned_runs_match_letter_loop_oracle(n, k, gaps):
    """Windows that take no set at the start of a run, back to back, in the
    middle of a 1000-window run and after 1, 2, 3, 4, 7, 8, ... 64 windows
    of a run; in the last window of the text, with no letter or one letter
    left to pull in, and past a window cut short by the end of the text."""
    for offset in range(n):
        for tail in sorted({max(n - 2 - offset, 0), n - 1 - offset, n - offset, 3 * n + 1, 500 * n}):
            caps = _primes_with_failures(n, gaps, offset, tail)
            layout = pipeline._build_layout(caps, n, k)
            assert layout.blocks() == list(loop_blocks(caps, n, k)), (offset, tail)
            if tail >= n:  # every capacity-1 letter was dropped
                assert sum(map(len, layout.skipped.values())) == len(gaps)


@pytest.mark.parametrize("n, k", LAYOUT_SHAPES)
def test_layout_limit_around_failures_matches_letter_loop_oracle(n, k):
    """A block limit before, at and after each block that had to drop a
    letter gives the first blocks of the unlimited partition."""
    for offset in range(n):
        caps = _primes_with_failures(n, (0, 3, 0, 5), offset, 2 * n)
        blocks = list(loop_blocks(caps, n, k))
        assert any(b.skipped_indices for b in blocks)
        for limit in range(len(blocks) + 2):
            got = pipeline._build_layout(caps, n, k, limit=limit).blocks()
            assert got == blocks[:limit], (offset, limit)


SKIP_CAPACITIES = {"a": 1, "b": 2, "c": 3, "d": 5, "e": 7, "f": 11}
SKIP_FREQUENCIES = {"a": 0.2, "b": 0.1, "c": 0.2, "d": 0.2, "e": 0.15, "f": 0.15}


def _skip_heavy_text(letters):
    """A text where a window often takes no set, over ``SKIP_CAPACITIES``."""
    return fixtures.random_text(letters, seed=7, frequencies=SKIP_FREQUENCIES)


def _skip_heavy_caps(letters):
    """The capacities of a text where a window often takes no set."""
    text = _skip_heavy_text(letters)
    return tuple(SKIP_CAPACITIES[ch] for ch in text if ch in SKIP_CAPACITIES)


def test_layout_cost_grows_linearly(monkeypatch):
    """On a text where about every other block drops letters, the layout of
    40k letters takes under 24 times as long as that of 5k.  The moduli
    search answers from a filled dict, so that only the layout is timed:
    linear code reads about 8-9 on a 2-core host, and a run that copies the
    rest of the text at each start reads about 44."""
    search = pipeline._choose_moduli_cached
    answers = {}

    def remember(window, k):
        if window not in answers:
            answers[window] = search(window, k)
        return answers[window]

    caps = {letters: _skip_heavy_caps(letters) for letters in (5_000, 40_000)}
    monkeypatch.setattr(pipeline, "_choose_moduli_cached", remember)
    for c in caps.values():
        pipeline._build_layout(c, 5, 3)
    monkeypatch.setattr(pipeline, "_choose_moduli_cached", lambda window, k: answers[window])

    def best(c):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            pipeline._build_layout(c, 5, 3)
            times.append(time.perf_counter() - start)
        return min(times)

    ratio = best(caps[40_000]) / best(caps[5_000])
    assert ratio < 24, f"{ratio:.1f}"


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
    _same_as_letter_loop(text, DIFF_CODEBOOK)
    for caps in (seq.capacities, list(seq.capacities)):
        assert pipeline._build_layout(caps, n, k).blocks() == list(loop_blocks(caps, n, k))
    assert outcome(partition_blocks, seq, n, k) == outcome(loop_partition_blocks, seq, n, k)


# the code-point pass reads each of these as one code point: a high and a
# low lone surrogate, a surrogate pair left as two code points, letters
# past the Basic Multilingual Plane and the last code point; "ab" is a
# two-character key, which no letter equals, and "a" is not a key
CODE_POINT_CODEBOOK = fixtures.fixture_codebook(
    {"b": 2, "c": 3, "é": 4, "\ud800": 5, "\U0001F600": 7, "\U0010FFFF": 4, "ab": 3}, seed=5
)
CODE_POINT_TEXTS = st.text(
    alphabet=st.sampled_from(
        ["a", "b", "c", "é", " ", "日", "\ud800", "\udfff", "\ud83d", "\ude00"]
        + ["\U0001F600", "\U0001F601", "\U0010FFFF", "\U0010FFFE"]
    )
    | st.characters(),
    max_size=120,
)


def _same_as_letter_loop(text, codebook):
    """The code-point pass gives the per-letter loop's letters (joined into
    one string), capacities (a tuple of Python ints) and positions, and its
    character ids name the same letters."""
    want = loop_letter_sequence(text, codebook)
    seq = letter_sequence(text, codebook)
    assert seq.letters == "".join(want.letters)
    assert [seq.chars[i] for i in seq.ids.tolist()] == list(want.letters)
    assert type(seq.capacities) is tuple
    assert all(type(c) is int for c in seq.capacities)
    assert seq.capacities == want.capacities
    assert seq.positions.tolist() == list(want.positions)


@settings(max_examples=300, deadline=None)
@given(text=CODE_POINT_TEXTS)
def test_code_point_pass_matches_letter_loop_oracle(text):
    _same_as_letter_loop(text, CODE_POINT_CODEBOOK)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "xyz 日 €",  # no codebook letter
        "ab aab",  # the two-character key matches no letter, its "b" does
        "\udfff\ud800",  # lone surrogates
        "\ud83d\ude00\U0001F600",  # a surrogate pair as two code points, then the letter
        "\U0010FFFF\U0010FFFE c\U0001F601é",
    ],
)
def test_code_point_pass_edge_cases_match_letter_loop_oracle(text):
    _same_as_letter_loop(text, CODE_POINT_CODEBOOK)
    _same_as_letter_loop(text, DIFF_CODEBOOK)
    only_long = fixtures.fixture_codebook({"ab": 3, "\udfff\ud800": 2})  # no one-character key
    _same_as_letter_loop(text, only_long)
    assert not letter_sequence(text, only_long).letters


@pytest.mark.parametrize("text", [None, b"abc", 5])
def test_a_text_that_is_not_a_str_is_refused(codebook, text):
    """Every entry point that reads a text's letters refuses a text that is
    not a str with ContractViolation, and capacity_report(text=None) still
    asks for exactly one of a text and a frequency table."""
    key = keygen(codebook, seed=1)
    config = SignatureConfig(segment_min_letters=10)
    doc = pipeline.EncodedDocument(text, (0, 1, 2), codebook.font_id)
    calls = [
        lambda: letter_sequence(text, codebook),
        lambda: embed(text, codebook, "1"),
        lambda: extract(doc, codebook),
        lambda: segment_text(text, codebook, config),
        lambda: sign_scheme1(text, codebook, key, config),
        lambda: verify(doc, codebook, config, key=key),
        lambda: channel.simulate_document(doc, codebook, 1, [channel.ChannelParams()]),
    ]
    for call in calls:
        with pytest.raises(ContractViolation, match="text must be a str"):
            call()
    refusal = "exactly one of" if text is None else "text must be a str"
    with pytest.raises(ContractViolation, match=refusal):
        pipeline.capacity_report(codebook, text=text)


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


@pytest.mark.parametrize("value", [-2, -5, -(2**62), 2**62 + 1])
def test_glyph_index_past_every_modulus_is_an_erasure(codebook, value):
    """Without a key, a negative glyph index, and one past 2^62 that int64
    holds, read as a misread letter, as the per-letter path reads them."""
    text = fixtures.random_text(300, seed=4)
    bits = "1011001110001111"
    bad = _tamper(embed(text, codebook, bits), [(7, value), (40, value)])
    assert extract(bad, codebook)[0] == bits
    assert outcome(extract, bad, codebook) == outcome(loop_extract, bad, codebook)


# capacities 5-13 with 250-300 at n = 8, k = 3: every word forms a block; a
# word of wide letters alone takes moduli whose P * max(p) passes 2^62,
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
    in_int64 = pipeline._garner(layout)[2][layout.set_ids] > 0  # M = 0 off the mask
    assert in_int64.tolist() == [False] * 3 + [True] * 5


# capacity windows whose moduli sets sit either side of the int64 guard
# P * max(p) = 2^62: the first takes (1234, 1211, 1317, 1243, 1373), at
# 0.999994 of it, and the second (1224, 1237, 1319, 1373, 1225), at 1.00003
BELOW_GUARD = (1234, 1212, 1317, 1244, 1380)
ABOVE_GUARD = (1224, 1239, 1319, 1374, 1225)


def test_int64_guard_boundary_matches_letter_loop_oracle():
    """Blocks of the set just below P * max(p) = 2^62 take the one-pass exact
    path and blocks of the set above it decode one by one; on both sides,
    exact, misread, out-of-range and past-int64 glyph indices decode as the
    per-block path does."""
    caps = (BELOW_GUARD + ABOVE_GUARD) * 4
    layout = pipeline._build_layout(caps, 5, 3)
    below, above = (math.prod(s.p) * max(s.p) for s in layout.sets)
    assert 2**62 - 2**46 < below < 2**62 < above < 2**62 + 2**48
    in_int64 = pipeline._garner(layout)[2][layout.set_ids] > 0  # M = 0 off the mask
    assert in_int64.tolist() == [True, False] * 4
    seq = _seq(caps)
    blocks = layout.blocks()
    rng = np.random.default_rng(18)
    payloads = [int(rng.integers(b.moduli.payload_bound)) for b in blocks]
    values = list(loop_encode_blocks(seq, blocks, payloads))
    # blocks 0-1 stay exact; 2-3 misread a letter, 4-5 read one past every
    # modulus inside int64, 6-7 one past int64
    for t, change in zip(range(2, 8), [None, None, 2**62 - 1, 2**62 - 1, 2**63, 2**63]):
        i = blocks[t].member_indices[t % 5]
        values[i] = (values[i] + 1) % caps[i] if change is None else change
    got, slow, (failed,) = pipeline._decode(caps, layout, pipeline._received(values, len(caps)))
    bits, outcomes = loop_decode_blocks(seq, blocks, values)
    assert failed is None and sorted(slow) == list(range(1, 8))
    report = [
        slow.get(t, crc.DecodeOutcome("exact", m, 0, 1, (m,))) for t, m in enumerate(got.tolist())
    ]
    assert report == outcomes and got.tolist() == payloads
    assert pipeline._text(pipeline._bits(got, layout.widths)) == bits


def test_long_wide_document_matches_letter_loop_oracle():
    """Forty 8-letter words whose capacities span 5-300, with blocks on both
    sides of the int64 guard, partition, embed and extract as the per-letter
    path does, also with a glyph index past int64 and a misread letter."""
    text = " ".join(WIDE_WORDS * 5)
    caps = letter_sequence(text, WIDE_CODEBOOK).capacities
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
    seq = _seq(caps * 3, "vwxyz" * 3)
    layout = pipeline._build_layout(seq.capacities, 5, 3)
    blocks = layout.blocks()
    assert blocks == loop_partition_blocks(seq, 5, 3)
    assert min(b.bit_width for b in blocks) > 62
    rng = np.random.default_rng(16)
    total = sum(b.bit_width for b in blocks)
    framed = "".join(rng.choice(["0", "1"], size=total - 9))
    payloads = pipeline._chunk(pipeline._digits(framed.ljust(total, "0")), layout.widths)
    assert payloads.tolist() == chunk_message(framed, blocks)
    cb = fixtures.fixture_codebook({"a": 2})  # read only for a key
    values = pipeline._encode(seq, layout, payloads, cb)
    assert values == loop_encode_blocks(seq, blocks, payloads.tolist())
    for changed in ([], [(1, 5)], [(1, 5), (6, 2**70)]):
        received = list(values)
        for i, v in changed:
            received[i] = v
        decoded, slow, failed = pipeline._decode(
            seq.capacities, layout, pipeline._received(received, len(received))
        )
        want_bits, want_report = loop_decode_blocks(seq, blocks, received)
        assert failed == [None]
        assert pipeline._text(pipeline._bits(decoded, layout.widths)) == want_bits
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
    pipeline._layout_memo.cache_clear()
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


# channel-codebook letters that share a glyph count, each sent to the next
# of its class, so that a text and its translation share their capacities
SAME_CAPACITY = str.maketrans("jqxzbkpvfgmuwycdhlrsaeinot", "qxzjkpvbgmuwyfdhlrsceinota")


def test_layout_memo_serves_each_text_its_own_layout(codebook, monkeypatch):
    """Embed, extract, sign, verify and the channel, each run over five
    texts in turn, read the layout that the uncached builder and the
    per-letter partition give for their text: a skip-heavy text, a
    100k-letter one, one with no complete block and two that share
    capacities.  The memo holds one layout and rebuilds it whenever the
    capacities change, the second of the two sharing texts reads the
    first's, and every array a served layout holds refuses a write."""
    shared = fixtures.random_text(300, seed=21)
    texts = [
        (_skip_heavy_text(2_000), fixtures.fixture_codebook(SKIP_CAPACITIES, seed=2)),
        (fixtures.random_text(100_000, seed=5), codebook),
        ("jaq", codebook),
        (shared, codebook),
        (shared.translate(SAME_CAPACITY), codebook),
    ]
    assert letter_sequence(texts[3][0], codebook).capacities == (
        letter_sequence(texts[4][0], codebook).capacities
    )
    memo = pipeline._layout_memo
    served = []

    def serve(caps, n, k):
        layout = memo(caps, n, k)
        assert memo.cache_info().currsize <= 1
        served.append((caps, n, k, layout))
        return layout

    monkeypatch.setattr(pipeline, "_layout_memo", serve)
    config = SignatureConfig(segment_min_letters=10)
    keys = {id(cb): keygen(cb, seed=4) for _, cb in texts}

    def zeros(text, cb):
        glyphs = (0,) * len(letter_sequence(text, cb).letters)
        return pipeline.EncodedDocument(text, glyphs, cb.font_id)

    docs = [outcome(embed, text, cb, "1011", key=keys[id(cb)]) for text, cb in texts]
    signed = [outcome(sign_scheme1, text, cb, keys[id(cb)], config) for text, cb in texts]
    docs = [d[1] if d[0] == "returned" else zeros(*t) for d, t in zip(docs, texts)]
    signed = [d[1] if d[0] == "returned" else zeros(*t) for d, t in zip(signed, texts)]
    got = [outcome(extract, doc, cb, key=keys[id(cb)]) for doc, (_, cb) in zip(docs, texts)]
    assert [g[1][0] if g[0] == "returned" else g[0] for g in got] == (
        ["1011"] * 2 + [DocumentTooSmallError] + ["1011"] * 2
    )
    for doc, (_, cb) in zip(signed, texts):
        outcome(verify, doc, cb, config, key=keys[id(cb)])
    for doc, (_, cb) in zip(docs, texts):
        channel.simulate_document(doc, cb, 1, [channel.ChannelParams()])
    partition_blocks(letter_sequence(texts[-1][0], codebook), 4, 2)  # same capacities

    rounds = 5  # embed, sign, extract, verify and the channel, one layout a call
    assert len(served) == rounds * len(texts) + 1
    layouts = {id(layout): (caps, n, k, layout) for caps, n, k, layout in served}
    # each call rebuilds but the fifth text's, which reads the fourth's
    assert len(layouts) == rounds * (len(texts) - 1) + 1
    partitions = {}
    for caps, n, k, layout in layouts.values():
        fresh = pipeline._build_layout(caps, n, k)
        for name in ("members", "set_ids", "moduli", "widths"):
            values, want = getattr(layout, name), getattr(fresh, name)
            assert np.array_equal(values, want) and values.dtype == want.dtype
            with pytest.raises(ValueError, match="read-only"):
                values[...] = 0
        assert layout.sets == fresh.sets and layout.skipped == fresh.skipped
        with pytest.raises(TypeError):
            layout.skipped[0] = ()
        if (caps, n, k) not in partitions:
            partitions[caps, n, k] = list(loop_blocks(caps, n, k))
        assert layout.blocks() == partitions[caps, n, k]
    assert len(partitions) == len(texts)
    assert any(layout.skipped for *_, layout in served)


def test_one_document_flow_builds_its_layout_once(codebook, monkeypatch):
    """Embed, extract, segmenting, signing and verifying one text build its
    layout once, and the sampled capacity estimate, whose draws never
    repeat, leaves the memo as it was."""
    builds = []
    build = pipeline._build_layout

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_build_layout", counted)
    pipeline._layout_memo.cache_clear()
    text = fixtures.random_text(2_000, seed=22)
    key = keygen(codebook, seed=5)
    config = SignatureConfig()
    doc = embed(text, codebook, "110", key=key)
    assert extract(doc, codebook, key=key)[0] == "110"
    segments = segment_text(text, codebook, config)
    signed = sign_scheme1(text, codebook, key, config)
    assert len(verify(signed, codebook, config, key=key).per_segment) == len(segments) > 1
    assert builds == [letter_sequence(text, codebook).capacities]
    before = pipeline._layout_memo.cache_info()
    pipeline.capacity_report(codebook, frequencies=fixtures.ENGLISH_FREQUENCIES, sample_blocks=500)
    assert len(builds) == 2
    assert pipeline._layout_memo.cache_info() == before


def test_a_second_partition_of_a_text_runs_no_moduli_search(monkeypatch):
    """At 100k skip-heavy letters one partition meets more distinct windows
    than the moduli search's cache holds, so a second partition of the same
    text would search many of them again; it reads the memo's layout and
    asks the search nothing."""
    seq = _seq(_skip_heavy_caps(100_000))
    blocks = partition_blocks(seq)
    searched = []
    search = pipeline._choose_moduli_cached

    def counted(window, k):
        searched.append(window)
        return search(window, k)

    monkeypatch.setattr(pipeline, "_choose_moduli_cached", counted)
    assert partition_blocks(_seq(seq.capacities)) == blocks
    assert searched == []


def _best_extract_seconds(codebook, letters, misread):
    """Best of three extract times on ``random_text(letters)``, clean or with
    one misread letter in every block."""
    text = fixtures.random_text(letters, seed=19)
    bits = "10" * (letters // 10)
    doc = embed(text, codebook, bits)
    if misread:
        seq = letter_sequence(text, codebook)
        firsts = [b.member_indices[0] for b in partition_blocks(seq)]
        doc = _tamper(doc, [(i, (doc.glyph_indices[i] + 1) % seq.capacities[i]) for i in firsts])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert extract(doc, codebook)[0] == bits
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("misread", [False, True])
def test_extract_cost_grows_linearly(codebook, misread):
    """Extract at 40k letters takes under 24 times as long as at 5k, clean and
    with one misread letter per block: linear code reads about 6-11 on a
    2-core host, and a quadratic step would read about 64."""
    ratio = _best_extract_seconds(codebook, 40_000, misread) / _best_extract_seconds(
        codebook, 5_000, misread
    )
    assert ratio < 24, f"{ratio:.1f}"


# eight prime capacities whose 7 smallest multiply past 2^63, and eight
# small ones whose set lifts in int64: at n = 8, k = 7 a document of both
# words holds Python-integer payloads, and exact blocks of each kind
PAST_INT64_CAPACITIES = dict(zip("abcdefgh", (601, 607, 613, 617, 619, 631, 641, 643)))
NARROW_CAPACITIES = dict(zip("ijklmnop", (2, 3, 5, 7, 11, 13, 17, 19)))


def _report_case(case, codebook):
    """(document, codebook, n, k, key, likelihood rows) of one differential
    case for extract's report."""
    if case == "past_int64":
        cb = fixtures.fixture_codebook(
            PAST_INT64_CAPACITIES | NARROW_CAPACITIES, vertex_count=8, seed=4
        )
        doc = embed(" ".join(["abcdefgh", "ijklmnop", "hgfedcba"] * 4), cb, "110" * 90, 8, 7)
        return _tamper(doc, [(26, 600)]), cb, 8, 7, None, None
    text = fixtures.random_text(300, seed=4)
    key = keygen(codebook, seed=4)
    doc = embed(text, codebook, "1011001110001111" * 3, key=key)
    seq = letter_sequence(text, codebook)
    blocks = partition_blocks(seq)
    rows = None
    if case == "one_error_per_block":
        misread = [b.member_indices[t % 5] for t, b in enumerate(blocks)]
        doc = _tamper(doc, [(i, (doc.glyph_indices[i] + 1) % seq.capacities[i]) for i in misread])
    elif case != "clean":  # no key: the key refuses a glyph index out of range
        key = None
        sent = embed(text, codebook, "1011001110001111" * 3)
        doc = _tamper(sent, [(3, 2**63), (40, -2), (77, 10**30), (150, 2**62 + 1)])
    if case == "ml_ties":
        doc = _tamper(sent, _tie(sent, blocks[2]) + _tie(sent, blocks[7]))
        rng = np.random.default_rng(4)
        rows = [rng.random(c) + 0.01 for c in seq.capacities]
        for row, v in zip(rows, sent.glyph_indices):
            row[v] += 1.0  # the sent glyph is the likeliest
    return doc, codebook, 5, 3, key, rows


@pytest.mark.parametrize("case", ["clean", "one_error_per_block", "ml_ties", "erasures", "past_int64"])
def test_extract_report_matches_letter_loop_oracle(codebook, case):
    """Extract's report reads as the per-letter path's list of outcomes:
    equality both ways, iteration, indexing, slicing, length and repr."""
    doc, cb, n, k, key, rows = _report_case(case, codebook)
    loop_key = None if key is None else IndexKey(key)
    bits, report = extract(doc, cb, n, k, key=key, likelihoods=rows)
    want_bits, want = loop_extract(doc, cb, n, k, key=loop_key, likelihoods=rows)
    assert bits == want_bits
    assert isinstance(report, pipeline.DecodeReport) and isinstance(want, list)
    assert report == want and want == report and not report != want
    assert list(report) == want and len(report) == len(want)
    assert report[-1] == want[-1] and report[0] == want[0]
    assert report[2:5] == want[2:5] and report[::-3] == want[::-3] and report[-4:] == want[-4:]
    assert [report[t] for t in range(-len(want), len(want))] == want + want
    assert repr(report) == repr(want)
    assert report.index(want[1]) == want.index(want[1])
    for past in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            report[past]
    statuses = {o.status for o in want}
    assert {"clean": {"exact"}, "one_error_per_block": {"corrected"}}.get(case, statuses) == statuses
    if case == "ml_ties":
        assert "corrected-ml" in statuses
    if case == "past_int64":
        exact = [o.m for o in report if o.status == "exact"]
        assert max(exact) >= 2**63 and min(exact) < 2**62
        assert all(type(o.m) is int for o in report)


def test_clean_extract_builds_no_outcome(codebook, monkeypatch):
    """A clean keyed 10k-letter extract builds no DecodeOutcome; reading its
    report builds one per block, equal to the outcome of an exact block."""
    built = []

    def counted(*fields):
        built.append(fields)
        return crc.DecodeOutcome(*fields)

    text = fixtures.random_text(10_000, seed=5)
    key = keygen(codebook, seed=5)
    bits = "1101" * 1000
    doc = embed(text, codebook, bits, key=key)
    monkeypatch.setattr(pipeline, "DecodeOutcome", counted)
    recovered, report = extract(doc, codebook, key=key)
    assert recovered == bits and built == []
    assert len(report) >= 1999
    outcomes = list(report)
    assert len(built) == len(report)
    assert all(o == ("exact", o.m, 0, 1, (o.m,)) and type(o.m) is int for o in outcomes)


@pytest.mark.parametrize("bad", [5.5, "3", None, True])
@pytest.mark.parametrize("size", ["n", "k"])
def test_sizes_that_are_not_integers_are_refused(codebook, size, bad):
    """Every entry point refuses a block size n or k that is not an integer
    with ContractViolation, before it reaches numpy or a comparison."""
    text = fixtures.random_text(200, seed=1)
    key = keygen(codebook, seed=1)
    doc = embed(text, codebook, "1011", key=key)
    sizes = {size: bad}
    freqs = fixtures.ENGLISH_FREQUENCIES
    calls = [
        lambda: embed(text, codebook, "1", **sizes),
        lambda: extract(doc, codebook, key=key, **sizes),
        lambda: pipeline.capacity_report(codebook, text=text, **sizes),
        lambda: pipeline.capacity_report(codebook, frequencies=freqs, sample_blocks=10, **sizes),
        lambda: partition_blocks(letter_sequence(text, codebook), **sizes),
        lambda: segment_text(text, codebook, SignatureConfig(**sizes)),
        lambda: sign_scheme1(text, codebook, key, SignatureConfig(**sizes)),
        lambda: verify(doc, codebook, SignatureConfig(**sizes), key=key),
        lambda: channel.simulate_document(doc, codebook, 1, [channel.ChannelParams()], **sizes),
    ]
    for call in calls:
        with pytest.raises(ContractViolation, match=f"^{size} must be an integer"):
            call()


@pytest.mark.parametrize("sizes", [dict(n=-5), dict(n=1, k=1), dict(k=0), dict(k=5)])
def test_sampled_capacity_refuses_sizes_before_drawing(codebook, sizes):
    """The frequency path checks n and k as the layout does before n sizes
    its draws, so a negative n is refused, not left to numpy."""
    freqs = fixtures.ENGLISH_FREQUENCIES
    with pytest.raises(ContractViolation, match="^need n >= 2 and 1 <= k < n$"):
        pipeline.capacity_report(codebook, frequencies=freqs, sample_blocks=10, **sizes)


def test_other_counts_that_are_not_integers_are_refused(codebook):
    """So are capacity_report's sample_blocks and seed, SignatureConfig's
    segment_min_letters and the layout's block limit."""
    freqs = fixtures.ENGLISH_FREQUENCIES
    for bad in (2.5, "3", None, True):
        for name in ("sample_blocks", "seed"):
            with pytest.raises(ContractViolation, match=f"^{name} must be an integer"):
                pipeline.capacity_report(codebook, frequencies=freqs, **{name: bad})
        with pytest.raises(ContractViolation, match="^segment_min_letters must be an integer"):
            SignatureConfig(segment_min_letters=bad)
        if bad is not None:  # no limit
            with pytest.raises(ContractViolation, match="^limit must be an integer"):
                pipeline._build_layout((5, 7, 9, 11, 13), 5, 3, limit=bad)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called where it must not run")


@pytest.mark.parametrize("bad", ["a", 1.5, 1.0, np.float64(2.0), b"1", [1], np.bool_(True)])
@pytest.mark.parametrize("where", [0, 57, -1])
def test_glyph_indices_that_are_not_integers_are_refused(codebook, monkeypatch, bad, where):
    """Extract, keyed or not, and verify refuse a glyph index that is not an
    integer with ContractViolation naming its letter, before any block is
    decoded."""
    text = fixtures.random_text(200, seed=1)
    key = keygen(codebook, seed=1)
    config = SignatureConfig(segment_min_letters=10)
    doc = embed(text, codebook, "1011", key=key)
    signed = sign_scheme1(text, codebook, key, config)
    i = where % len(doc.glyph_indices)
    monkeypatch.setattr(pipeline, "_decode", _must_not_run)
    monkeypatch.setattr("glyphcode.crypto._decode", _must_not_run)
    calls = [
        lambda: extract(_tamper(doc, [(i, bad)]), codebook, key=key),
        lambda: extract(_tamper(doc, [(i, bad)]), codebook),
        lambda: verify(_tamper(signed, [(i, bad)]), codebook, config, key=key),
    ]
    for call in calls:
        with pytest.raises(
            ContractViolation, match=f"^glyph index {i} must be an integer, not {type(bad).__name__}$"
        ):
            call()


def test_none_glyph_index_is_a_refused_letter_and_integers_take_one_conversion(
    codebook, monkeypatch
):
    """A None glyph index still fails its block: extract raises
    PartialDecodeError there and verify reports its segment as
    extraction-failed.  A stream of Python or numpy integers is converted
    without reading one value at a time."""
    text = fixtures.random_text(400, seed=1)
    key = keygen(codebook, seed=1)
    config = SignatureConfig(segment_min_letters=10)
    doc = embed(text, codebook, "1011")
    signed = sign_scheme1(text, codebook, key, config)
    block = partition_blocks(letter_sequence(text, codebook))[3]
    with pytest.raises(PartialDecodeError) as err:
        extract(_tamper(doc, [(block.member_indices[1], None)]), codebook)
    assert err.value.block_index == 3
    report = verify(_tamper(signed, [(block.member_indices[1], None)]), codebook, config, key=key)
    notes = [s.note for s in report.per_segment]
    assert notes[0] == "extraction-failed" and set(notes[1:]) == {""}
    monkeypatch.setattr(pipeline, "_received_value", _must_not_run)
    as_numpy = pipeline.EncodedDocument(
        doc.text, tuple(np.array(doc.glyph_indices)), doc.codebook_id
    )
    assert extract(doc, codebook)[0] == extract(as_numpy, codebook)[0] == "1011"
    assert verify(signed, codebook, config, key=key).overall == "match"


def test_numpy_integer_sizes_are_accepted(codebook):
    text = fixtures.random_text(200, seed=1)
    n, k = np.int64(5), np.int64(3)
    doc = embed(text, codebook, "1011", n=n, k=k)
    assert doc == embed(text, codebook, "1011")
    assert extract(doc, codebook, n=n, k=k)[0] == "1011"
    config = SignatureConfig(segment_min_letters=np.int64(80), n=n, k=k)
    assert config == SignatureConfig() and type(config.n) is int
    freqs = fixtures.ENGLISH_FREQUENCIES
    assert pipeline.capacity_report(
        codebook, frequencies=freqs, n=n, k=k, sample_blocks=np.int64(50), seed=np.int64(2)
    ) == pipeline.capacity_report(codebook, frequencies=freqs, sample_blocks=50, seed=2)
