import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dfs_choose_moduli, oracle_choose

from glyphcode import fixtures, pipeline
from glyphcode.errors import (
    CapacityExceededError,
    ContractViolation,
    CorruptFrameError,
    DocumentTooSmallError,
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
