import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    BEYOND_INT64,
    GLYPH_CHANGES,
    IndexKey,
    loop_bits_from_bytes,
    loop_embed,
    loop_encode_blocks,
    loop_extract,
    loop_layout,
    loop_segment_digest,
    loop_sign_scheme1,
    loop_verify,
    outcome,
    string_chunk_message,
)

from glyphcode import crypto, fixtures, pipeline
from glyphcode.codebook import Codebook
from glyphcode.errors import (
    ContractViolation,
    CorruptFrameError,
    KeyMismatchError,
    SigningError,
)
from glyphcode.crypto import (
    PermutationKey,
    SignatureConfig,
    ToyRsaProvider,
    _next_prime,
    content_hash,
    identity_key,
    key_space_bits,
    keygen,
    segment_text,
    sign_scheme1,
    sign_scheme2,
    verify,
)


@pytest.fixture(scope="module")
def codebook():
    return fixtures.channel_codebook()


@pytest.fixture(scope="module")
def sig_codebook():
    return fixtures.signature_codebook()


def test_keygen_deterministic(codebook):
    a = keygen(codebook, seed=3)
    b = keygen(codebook, seed=3)
    assert a.perms == b.perms
    c = keygen(codebook, seed=4)
    assert a.perms != c.perms


def test_forward_inverse_round_trip(codebook):
    key = keygen(codebook, seed=2)
    for ch in codebook.characters():
        for v in range(codebook.capacity(ch)):
            assert key.inverse(ch, key.forward(ch, v)) == v


def test_inverse_row_tracks_inverse(codebook):
    key = keygen(codebook, seed=5)
    ch = "e"
    cap = codebook.capacity(ch)
    row = np.arange(cap, dtype=float)
    moved = key.inverse_row(ch, row)
    for v in range(cap):
        assert moved[v] == row[key.forward(ch, v)]


def test_key_maps_follow_a_replaced_permutation(codebook):
    """A key holds its permutations and nothing derived from them, so
    replacing one moves every map, per letter and per document, to it."""
    key = keygen(codebook, seed=2)
    ch = "e"
    perm = key.perms[ch][1:] + key.perms[ch][:1]  # same width, other order
    assert perm != key.perms[ch]
    key.perms[ch] = perm
    integers = list(range(len(perm)))
    assert [key.forward(ch, v) for v in integers] == list(perm)
    assert [key.inverse(ch, g) for g in perm] == integers
    assert key.inverse_row(ch, np.arange(len(perm), dtype=float)).tolist() == list(perm)
    seq = pipeline.letter_sequence(ch * len(perm), codebook)
    mapped = key.forward_ids(seq.chars, seq.ids, np.array(integers), codebook)
    assert mapped.tolist() == list(perm)
    back = key.inverse_ids(seq.chars, seq.ids, np.array(perm), codebook)
    assert back.tolist() == integers


def test_key_validation_and_mismatch(codebook):
    with pytest.raises(ContractViolation):
        PermutationKey("bad", {"a": (0, 0, 1)})
    key = PermutationKey("tiny", {"a": (1, 0)})
    with pytest.raises(KeyMismatchError):
        key.forward("b", 0)
    with pytest.raises(KeyMismatchError):
        key.forward("a", 2)
    with pytest.raises(KeyMismatchError):
        key.inverse_row("a", np.ones(3))


@pytest.mark.parametrize("value", [None, "1", 1.0, 1.5, [1]])
def test_key_refuses_a_value_that_is_not_an_integer(value):
    key = PermutationKey("tiny", {"a": (1, 0)})
    with pytest.raises(KeyMismatchError, match="integer .* out of range"):
        key.forward("a", value)
    with pytest.raises(KeyMismatchError, match="glyph index .* out of range"):
        key.inverse("a", value)
    assert key.forward("a", np.int64(1)) == 0 and key.inverse("a", np.int64(0)) == 1


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_keyed_extract_refuses_a_none_glyph_index(codebook, where):
    """A None glyph index under a key is refused with KeyMismatchError, the
    error an out-of-range one gets, at the first, a middle and the last
    letter."""
    key = keygen(codebook, seed=4)
    doc = pipeline.embed(fixtures.random_text(60, seed=1), codebook, "1011", key=key)
    i = {"first": 0, "middle": len(doc.glyph_indices) // 2, "last": -1}[where]
    indices = list(doc.glyph_indices)
    indices[i] = None
    broken = pipeline.EncodedDocument(doc.text, tuple(indices), doc.codebook_id)
    with pytest.raises(KeyMismatchError, match="glyph index None out of range"):
        pipeline.extract(broken, codebook, key=key)


def test_key_wider_than_the_codebook_is_refused(codebook, sig_codebook):
    """A key whose permutations cover more glyphs than a letter has does not
    fit the codebook: embed, extract, sign and verify refuse it with a message
    naming the letter, the key's glyph count and the letter's capacity."""
    def wide(cb):
        return PermutationKey(
            "wide", {ch: tuple(range(cb.capacity(ch) + 1)) for ch in cb.characters()}
        )

    def message(cb):
        ch = next(iter(cb.entries))
        cap = cb.capacity(ch)
        return re.escape(
            f"key permutes {cap + 1} glyphs for character {ch!r}, which has capacity {cap}"
        )

    text = fixtures.random_text(90, seed=10)
    with pytest.raises(KeyMismatchError, match=message(codebook)):
        pipeline.embed(text, codebook, "1011", key=wide(codebook))
    doc = pipeline.embed(text, codebook, "1011", key=identity_key(codebook))
    with pytest.raises(KeyMismatchError, match=message(codebook)):
        pipeline.extract(doc, codebook, key=wide(codebook))
    sig_text = _sig_text(176, seed=20)
    with pytest.raises(KeyMismatchError, match=message(sig_codebook)):
        sign_scheme1(sig_text, sig_codebook, wide(sig_codebook))
    signed = sign_scheme1(sig_text, sig_codebook, identity_key(sig_codebook))
    with pytest.raises(KeyMismatchError, match=message(sig_codebook)):
        verify(signed, sig_codebook, SignatureConfig(), key=wide(sig_codebook))


def test_clean_keyed_decode_builds_no_likelihood_rows(codebook, sig_codebook, monkeypatch):
    """Rows are read only on a Hamming tie; a clean document has none, so the
    key maps no row (its fit to the codebook is checked without one)."""
    calls = []
    inverse_row = PermutationKey.inverse_row

    def counting(self, character, row):
        calls.append(character)
        return inverse_row(self, character, row)

    monkeypatch.setattr(PermutationKey, "inverse_row", counting)
    text = fixtures.random_text(600, seed=11)
    key = keygen(codebook, seed=3)
    doc = pipeline.embed(text, codebook, "1101", key=key)
    assert pipeline.extract(doc, codebook, key=key)[0] == "1101"
    assert calls == []
    sig_key = keygen(sig_codebook, seed=4)
    signed = sign_scheme1(_sig_text(600, seed=12), sig_codebook, sig_key)
    assert verify(signed, sig_codebook, SignatureConfig(), key=sig_key).overall == "match"
    assert calls == []


def test_key_space_examples():
    def cb(caps):
        entries = {
            ch: fixtures.chain_entry(ch, n) for ch, n in caps.items()
        }
        return Codebook(font_id="t", entries=entries)

    assert key_space_bits(cb({"a": 1, "b": 1})) == pytest.approx(0.0)
    assert key_space_bits(cb({"a": 3, "b": 1})) == pytest.approx(math.log2(6))
    assert key_space_bits(cb({"a": 4, "b": 3})) == pytest.approx(
        math.log2(24) + math.log2(6)
    )


def test_wrong_key_corrupts_frame(codebook):
    text = fixtures.random_text(90, seed=10)
    bits = "1011001110101100"
    key = keygen(codebook, seed=0)
    doc = pipeline.embed(text, codebook, bits, key=key)
    recovered, _ = pipeline.extract(doc, codebook, key=key)
    assert recovered == bits
    wrong = keygen(codebook, seed=99)
    try:
        garbled, _ = pipeline.extract(doc, codebook, key=wrong)
        assert garbled != bits
    except CorruptFrameError:
        pass


def _sig_text(letters, seed):
    return fixtures.random_text(letters, seed=seed)


def _mutate_letter(text, codebook, seq_index):
    """Replace one coded letter with a different codebook letter.

    The signature codebook has uniform capacity, so the substitution leaves
    the block layout and the embedded bits alone while changing the content
    hash of exactly one segment.
    """
    seq = pipeline.letter_sequence(text, codebook)
    pos = seq.positions[seq_index]
    alt = next(c for c in codebook.characters() if c != text[pos])
    return text[:pos] + alt + text[pos + 1 :]


@pytest.mark.parametrize("bit", [0, 63, 64, 127])
def test_verify_reads_every_digest_bit(sig_codebook, bit):
    """A segment whose embedded digest differs from its content's hash in
    any one of its 128 bits reads mismatch; the other segments match.  The
    document is signed by the per-letter path with that bit flipped."""
    text = _sig_text(400, seed=21)
    key = keygen(sig_codebook, seed=7)
    config = SignatureConfig()
    seq, blocks, segments = loop_layout(text, sig_codebook, config, None)
    payloads = [
        loop_bits_from_bytes(loop_segment_digest(seq, s, config.hash_id)) for s in segments
    ]
    flipped = "1" if payloads[1][bit] == "0" else "0"
    payloads[1] = payloads[1][:bit] + flipped + payloads[1][bit + 1 :]
    chunks = [
        m
        for s, bits in zip(segments, payloads)
        for m in string_chunk_message(bits, blocks[s.block_start : s.block_end])
    ]
    indices = loop_encode_blocks(seq, blocks, chunks, IndexKey(key))
    doc = pipeline.EncodedDocument(text, indices, sig_codebook.font_id)
    statuses = [s.status for s in verify(doc, sig_codebook, config, key=key).per_segment]
    assert len(statuses) >= 3
    assert statuses == ["match", "mismatch"] + ["match"] * (len(statuses) - 2)


def test_sign_verify_scheme1_round_trip(sig_codebook):
    text = _sig_text(176, seed=20)
    key = keygen(sig_codebook, seed=7)
    config = SignatureConfig()
    doc = sign_scheme1(text, sig_codebook, key, config)
    report = verify(doc, sig_codebook, config, key=key)
    assert report.overall == "match"
    assert all(s.status == "match" for s in report.per_segment)
    assert report.as_text().startswith("overall: match")


def test_verify_localizes_tampering(sig_codebook):
    text = _sig_text(264, seed=21)
    key = keygen(sig_codebook, seed=8)
    config = SignatureConfig()
    doc = sign_scheme1(text, sig_codebook, key, config)
    segments = segment_text(text, sig_codebook, config)
    assert len(segments) == 3
    target = segments[1]
    mid = (target.seq_start + target.seq_end) // 2
    new_text = _mutate_letter(text, sig_codebook, mid)
    tampered = crypto.EncodedDocument(new_text, doc.glyph_indices, doc.codebook_id)
    report = verify(tampered, sig_codebook, config, key=key)
    statuses = [s.status for s in report.per_segment]
    assert statuses == ["match", "mismatch", "match"]
    assert report.overall == "mismatch"


def test_verify_reports_a_short_index_stream(sig_codebook):
    """A document with fewer glyph indices than letters fails extraction in
    the segments that reach past its end; the segments before still verify."""
    text = _sig_text(264, seed=21)
    key = keygen(sig_codebook, seed=8)
    config = SignatureConfig()
    doc = sign_scheme1(text, sig_codebook, key, config)
    segments = segment_text(text, sig_codebook, config)
    cut = 100
    assert segments[0].seq_end <= cut < segments[1].seq_end
    short = crypto.EncodedDocument(text, doc.glyph_indices[:cut], doc.codebook_id)
    report = verify(short, sig_codebook, config, key=key)
    assert [(s.status, s.note) for s in report.per_segment] == [
        ("match", ""),
        ("mismatch", "extraction-failed"),
        ("mismatch", "extraction-failed"),
    ]


def test_verify_refuses_a_long_index_stream(sig_codebook):
    """A document with more glyph indices than letters is refused as
    extraction refuses it, whatever the extra indices hold."""
    text = _sig_text(264, seed=21)
    key = keygen(sig_codebook, seed=8)
    config = SignatureConfig()
    doc = sign_scheme1(text, sig_codebook, key, config)
    extra = (0,) * 20 + (99,) + (1,) * 19
    long = crypto.EncodedDocument(text, doc.glyph_indices + extra, doc.codebook_id)
    message = "glyph index stream does not match the letter count"
    with pytest.raises(ContractViolation, match=message):
        pipeline.extract(long, sig_codebook, key=key)
    with pytest.raises(ContractViolation, match=message):
        verify(long, sig_codebook, config, key=key)
    signer = ToyRsaProvider.generate(seed=1)
    doc2 = sign_scheme2(text, sig_codebook, signer, config)
    long2 = crypto.EncodedDocument(text, doc2.glyph_indices + extra, doc2.codebook_id)
    with pytest.raises(ContractViolation, match=message):
        verify(long2, sig_codebook, config, verifier=signer.public())


def test_verify_wrong_key_fails_everywhere(sig_codebook):
    text = _sig_text(176, seed=22)
    key = keygen(sig_codebook, seed=9)
    config = SignatureConfig()
    doc = sign_scheme1(text, sig_codebook, key, config)
    wrong = keygen(sig_codebook, seed=10)
    report = verify(doc, sig_codebook, config, key=wrong)
    assert report.overall == "mismatch"
    assert all(s.status == "mismatch" for s in report.per_segment)


def test_every_segment_tampered(sig_codebook):
    text = _sig_text(264, seed=23)
    key = keygen(sig_codebook, seed=11)
    config = SignatureConfig()
    doc = sign_scheme1(text, sig_codebook, key, config)
    segments = segment_text(text, sig_codebook, config)
    new_text = text
    for s in segments:
        new_text = _mutate_letter(new_text, sig_codebook, s.seq_start)
    tampered = crypto.EncodedDocument(new_text, doc.glyph_indices, doc.codebook_id)
    report = verify(tampered, sig_codebook, config, key=key)
    assert all(s.status == "mismatch" for s in report.per_segment)


def test_scheme2_round_trip_and_tamper(sig_codebook):
    text = _sig_text(176, seed=24)
    signer = ToyRsaProvider.generate(seed=1)
    config = SignatureConfig()
    doc = sign_scheme2(text, sig_codebook, signer, config)
    report = verify(doc, sig_codebook, config, verifier=signer.public())
    assert report.overall == "match"

    new_text = _mutate_letter(text, sig_codebook, 0)
    tampered = crypto.EncodedDocument(new_text, doc.glyph_indices, doc.codebook_id)
    report = verify(tampered, sig_codebook, config, verifier=signer.public())
    assert report.per_segment[0].status == "mismatch"

    other = ToyRsaProvider.generate(seed=2)
    report = verify(doc, sig_codebook, config, verifier=other.public())
    assert report.overall == "mismatch"


def test_verify_needs_exactly_one_of_key_and_verifier(sig_codebook):
    """The scheme is the one whose key is passed; both or neither is refused."""
    text = _sig_text(176, seed=24)
    key = keygen(sig_codebook, seed=7)
    doc = sign_scheme1(text, sig_codebook, key)
    verifier = ToyRsaProvider.generate(seed=1).public()
    config = SignatureConfig()
    for kwargs in ({}, {"key": key, "verifier": verifier}):
        with pytest.raises(ContractViolation, match="exactly one"):
            verify(doc, sig_codebook, config, **kwargs)


def test_toy_rsa_provider():
    signer = ToyRsaProvider.generate(seed=5)
    digest = content_hash("hello world")
    sig = signer.sign(digest)
    assert len(sig) == signer.signature_bits
    assert signer.public().check(digest, sig)
    assert not signer.public().check(content_hash("hello worle"), sig)
    with pytest.raises(SigningError):
        signer.public().sign(digest)


def test_next_prime_matches_sympy():
    """Trial division against sympy's next-prime search: random 32-bit
    values, every small value, the top of the 32-bit range, a Carmichael
    number and strong pseudoprimes to small bases."""
    rng = random.Random(12)
    values = [rng.randrange(1 << 31, 1 << 32) for _ in range(100)]
    values += list(range(2001))
    values += list(range(4294967291, 4294967297))
    values += [560, 561, 2046, 2047, 3215031750, 3215031751]
    for n in values:
        assert _next_prime(n) == sympy.nextprime(n), n


def test_library_imports_without_sympy():
    """The library and its CLI need numpy alone: importing them loads no
    top-level module outside the standard library but glyphcode and numpy,
    so sympy stays a test tool."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import glyphcode, glyphcode.cli\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(loaded - set(sys.stdlib_module_names)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["glyphcode", "numpy"]


def test_signing_capacity_shortfall(sig_codebook):
    key = keygen(sig_codebook, seed=0)
    with pytest.raises(SigningError):
        sign_scheme1(_sig_text(20, seed=25), sig_codebook, key)


def test_segment_covers_all_letters(sig_codebook):
    text = _sig_text(200, seed=26)
    segments = segment_text(text, sig_codebook, SignatureConfig())
    seq = pipeline.letter_sequence(text, sig_codebook)
    assert segments[0].seq_start == 0
    assert segments[-1].seq_end == len(seq.letters)
    for prev, nxt in zip(segments, segments[1:]):
        assert prev.seq_end == nxt.seq_start
    for s in segments:
        assert s.seq_end - s.seq_start >= 80 or s is segments[-1]


def test_content_hash_is_standard():
    import hashlib

    assert content_hash("abc") == hashlib.md5(b"abc").digest()
    assert content_hash("abc", "sha256") == hashlib.sha256(b"abc").digest()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_key_round_trip_property(seed):
    cb = fixtures.channel_codebook()
    key = keygen(cb, seed=seed)
    for ch in ("e", "z"):
        for v in range(cb.capacity(ch)):
            assert key.inverse(ch, key.forward(ch, v)) == v


@pytest.mark.parametrize("letters", [176, 704])
def test_sign_and_verify_build_the_layout_once(sig_codebook, monkeypatch, letters):
    """Signing and verification cost stays linear in the document length:
    the code-point pass over the letters and the block partition run once
    per call from an empty layout memo, whatever the number of segments."""
    calls = {"letter_sequence": 0, "_build_layout": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    monkeypatch.setattr(crypto, "letter_sequence", pipeline.letter_sequence)

    def once(run):
        for name in calls:
            calls[name] = 0
        pipeline._layout_memo.cache_clear()
        out = run()
        assert calls == {"letter_sequence": 1, "_build_layout": 1}
        return out

    text = _sig_text(letters, seed=27)
    key = keygen(sig_codebook, seed=12)
    signer = ToyRsaProvider.generate(seed=3)
    config1 = config2 = SignatureConfig()
    assert len(segment_text(text, sig_codebook, config1)) >= letters // 100
    doc1 = once(lambda: sign_scheme1(text, sig_codebook, key, config1))
    doc2 = once(lambda: sign_scheme2(text, sig_codebook, signer, config2))
    assert once(lambda: verify(doc1, sig_codebook, config1, key=key)).overall == "match"
    report = once(lambda: verify(doc2, sig_codebook, config2, verifier=signer.public()))
    assert report.overall == "match"


# capacity 1 ("a") forces dropped windows; "é" is a non-ASCII codebook letter
DIFF_CODEBOOK = fixtures.fixture_codebook(
    {"a": 1, "b": 2, "c": 3, "d": 5, "é": 4, "f": 7, "g": 11}, seed=2
)
DIFF_CONFIG = SignatureConfig(segment_min_letters=10)


def _bad_keys(key, ch):
    """The key without ``ch``, and with a permutation for ``ch`` one glyph
    shorter and one glyph longer than the letter's capacity, each with the
    KeyMismatchError message that refuses it."""
    perms = dict(key.perms)
    cap = len(perms[ch])

    def wrong_width(width):
        key = PermutationKey("width", {**perms, ch: tuple(reversed(range(width)))})
        return key, f"key permutes {width} glyphs for character {ch!r}, which has capacity {cap}"

    missing = PermutationKey("missing", {c: p for c, p in perms.items() if c != ch})
    return [
        (missing, f"key has no entry for character {ch!r}"),
        wrong_width(cap - 1),
        wrong_width(cap + 1),
    ]


def _diff_text(letters, seed):
    freqs = {"a": 0.05, "b": 0.05, "c": 0.1, "d": 0.15, "é": 0.1, "f": 0.25, "g": 0.3}
    text = fixtures.random_text(letters, seed=seed, frequencies=freqs)
    return text.replace(" ", " 日 ", 3) + "1€"


def test_bad_keys_fail_like_the_letter_loop_oracle(monkeypatch):
    """A key without a letter, or with a permutation shorter or longer than
    the letter's capacity, does not fit the codebook: embed, extract, sign and
    verify raise KeyMismatchError, and extract and verify decode no block.  A
    glyph index out of range at the first, a middle and the last letter fails
    them with the per-letter path's error (type, message, block and cause) or
    report."""
    text = _diff_text(800, seed=31)
    seq = pipeline.letter_sequence(text, DIFF_CODEBOOK)
    key = keygen(DIFF_CODEBOOK, seed=5)
    bits = "1101" * 6
    doc = pipeline.embed(text, DIFF_CODEBOOK, bits, key=key)
    signed = sign_scheme1(text, DIFF_CODEBOOK, key, DIFF_CONFIG)
    assert len(segment_text(text, DIFF_CODEBOOK, DIFF_CONFIG)) >= 3

    def same(key, doc, signed):
        loop_key = IndexKey(key)
        assert outcome(pipeline.embed, text, DIFF_CODEBOOK, bits, key=key) == outcome(
            loop_embed, text, DIFF_CODEBOOK, bits, key=loop_key
        )
        extracted = outcome(pipeline.extract, doc, DIFF_CODEBOOK, key=key)
        assert extracted == outcome(loop_extract, doc, DIFF_CODEBOOK, key=loop_key)
        assert outcome(sign_scheme1, text, DIFF_CODEBOOK, key, DIFF_CONFIG) == outcome(
            loop_sign_scheme1, text, DIFF_CODEBOOK, loop_key, DIFF_CONFIG
        )
        report = outcome(verify, signed, DIFF_CODEBOOK, DIFF_CONFIG, key=key)
        assert report == outcome(loop_verify, signed, DIFF_CODEBOOK, DIFF_CONFIG, key=loop_key)
        return extracted[0], report[1].overall

    def refused(bad, message):
        with monkeypatch.context() as m:
            m.setattr(pipeline, "hamming_decode", None)  # decoding a block fails
            for call in (
                lambda: pipeline.embed(text, DIFF_CODEBOOK, bits, key=bad),
                lambda: pipeline.extract(doc, DIFF_CODEBOOK, key=bad),
                lambda: sign_scheme1(text, DIFF_CODEBOOK, bad, DIFF_CONFIG),
                lambda: verify(signed, DIFF_CODEBOOK, DIFF_CONFIG, key=bad),
            ):
                assert outcome(call) == (KeyMismatchError, message, type(None), "None")

    for ch in "bdg":
        for bad, message in _bad_keys(key, ch):
            refused(bad, message)
    got = set()
    last = len(seq.letters) - 1
    for i in (0, last // 2, last):
        cap = seq.capacities[i]
        for v in (cap, cap + 3, -1):
            def cut(d):
                indices = list(d.glyph_indices)
                indices[i] = v
                return pipeline.EncodedDocument(d.text, tuple(indices), d.codebook_id)

            got.add(same(key, cut(doc), cut(signed)))
    assert got >= {(KeyMismatchError, "mismatch")}


@settings(max_examples=150, deadline=None)
@given(
    letters=st.integers(40, 1000),
    text_seed=st.integers(0, 10**4),
    key_seed=st.integers(0, 50),
    bad=st.sampled_from([None, "missing", "short", "long"]),
    changes=GLYPH_CHANGES,
)
def test_sign_and_verify_match_letter_loop_oracle(letters, text_seed, key_seed, bad, changes):
    """Segments, signed documents and verify reports are the per-letter
    path's with good keys and with changed glyph indices; a bad key raises
    KeyMismatchError from sign and verify once the layout is built."""
    text = _diff_text(letters, seed=text_seed)
    good = keygen(DIFF_CODEBOOK, seed=key_seed)
    key, refusal = good, None
    if bad is not None:
        key, message = _bad_keys(good, "d")[["missing", "short", "long"].index(bad)]
        refusal = (KeyMismatchError, message, type(None), "None")
    loop_key = IndexKey(key)
    want = outcome(loop_layout, text, DIFF_CODEBOOK, DIFF_CONFIG, None)
    if want[0] == "returned":
        want = ("returned", want[1][2])  # the segments
    assert outcome(segment_text, text, DIFF_CODEBOOK, DIFF_CONFIG) == want
    signed = outcome(sign_scheme1, text, DIFF_CODEBOOK, key, DIFF_CONFIG)
    if refusal is None or want[0] != "returned":
        assert signed == outcome(loop_sign_scheme1, text, DIFF_CODEBOOK, loop_key, DIFF_CONFIG)
    else:
        assert signed == refusal
    doc = outcome(sign_scheme1, text, DIFF_CODEBOOK, good, DIFF_CONFIG)
    if doc[0] != "returned":
        return
    indices = list(doc[1].glyph_indices)
    for i, v in changes:
        indices[i % len(indices)] = v
    tampered = pipeline.EncodedDocument(text, tuple(indices), doc[1].codebook_id)
    got = outcome(verify, tampered, DIFF_CODEBOOK, DIFF_CONFIG, key=key)
    if refusal is None:
        assert got == outcome(loop_verify, tampered, DIFF_CODEBOOK, DIFF_CONFIG, key=loop_key)
    else:
        assert got == refusal


SIGNER = ToyRsaProvider.generate(seed=8)


@settings(max_examples=60, deadline=None)
@given(
    letters=st.integers(40, 1000),
    text_seed=st.integers(0, 10**4),
    changes=GLYPH_CHANGES,
)
def test_scheme2_verify_matches_letter_loop_oracle(letters, text_seed, changes):
    """Without a key, verify reports what the per-letter path reports on a
    scheme-2 document with changed glyph indices, those past int64 included."""
    text = _diff_text(letters, seed=text_seed)
    signed = outcome(sign_scheme2, text, DIFF_CODEBOOK, SIGNER, DIFF_CONFIG)
    if signed[0] != "returned":
        return
    indices = list(signed[1].glyph_indices)
    for i, v in changes:
        indices[i % len(indices)] = v
    tampered = pipeline.EncodedDocument(text, tuple(indices), signed[1].codebook_id)
    public = SIGNER.public()
    got = outcome(verify, tampered, DIFF_CODEBOOK, DIFF_CONFIG, verifier=public)
    assert got == outcome(loop_verify, tampered, DIFF_CODEBOOK, DIFF_CONFIG, verifier=public)
    if not changes:
        assert got[1].overall == "match"


# "\U0001F600" is a letter past the Basic Multilingual Plane and "ab" a
# two-character key, which no letter equals but every key must fit
KEYED_CODEBOOK = fixtures.fixture_codebook(
    {"a": 1, "b": 2, "c": 3, "d": 5, "\U0001F600": 4, "f": 7, "g": 11, "ab": 3}, seed=2
)


def _keyed_text(letters, seed):
    freqs = {"a": 0.05, "b": 0.05, "c": 0.1, "d": 0.15, "\U0001F600": 0.1, "f": 0.25, "g": 0.3}
    text = fixtures.random_text(letters, seed=seed, frequencies=freqs)
    return text.replace(" ", " 日 ", 3) + "1€\U0001F601"


def _with_extra_characters(key):
    """The key with permutations for characters the codebook lacks."""
    extra = {"z": (1, 0), "xy": (0,), "\U0001F601": (2, 0, 1), "é": tuple(range(40))}
    return PermutationKey(key.key_id, {**extra, **key.perms})


def _changed(doc, changes, past, caps):
    """The document with glyph index i set to v for each (i, v) of
    ``changes``, then to letter i's capacity plus o for each (i, o) of
    ``past``."""
    indices = list(doc.glyph_indices)
    for i, v in changes:
        indices[i % len(indices)] = v
    for i, o in past:
        indices[i % len(indices)] = caps[i % len(indices)] + o
    return pipeline.EncodedDocument(doc.text, tuple(indices), doc.codebook_id)


def _keyed_round_trips(text, codebook, config, key, bits, changes, past):
    """Keyed embed, extract, sign and verify give the per-letter path's
    documents, messages, reports and errors (type, message and cause, so
    the letter and block where each is raised), on documents with changed
    glyph indices."""
    loop_key = IndexKey(key)
    n, k = config.n, config.k
    caps = pipeline.letter_sequence(text, codebook).capacities
    doc = outcome(pipeline.embed, text, codebook, bits, n, k, key=key)
    assert doc == outcome(loop_embed, text, codebook, bits, n, k, key=loop_key)
    signed = outcome(sign_scheme1, text, codebook, key, config)
    assert signed == outcome(loop_sign_scheme1, text, codebook, loop_key, config)
    got = set()
    if doc[0] == "returned":
        bad = _changed(doc[1], changes, past, caps)
        extracted = outcome(pipeline.extract, bad, codebook, n, k, key=key)
        assert extracted == outcome(loop_extract, bad, codebook, n, k, key=loop_key)
        got.add(extracted[0])
    if signed[0] == "returned":
        bad = _changed(signed[1], changes, past, caps)
        report = outcome(verify, bad, codebook, config, key=key)
        assert report == outcome(loop_verify, bad, codebook, config, key=loop_key)
        got.add(report[1].overall)
    return got


@settings(max_examples=120, deadline=None)
@given(
    letters=st.integers(40, 600),
    text_seed=st.integers(0, 10**4),
    key_seed=st.integers(0, 50),
    extra=st.booleans(),
    bits=st.text(alphabet="01", max_size=40),
    changes=GLYPH_CHANGES,
    past=st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from([0, 3])), max_size=2),
)
def test_key_table_gathers_match_index_key_oracle(
    letters, text_seed, key_seed, extra, bits, changes, past
):
    """The keyed round trip, whose key maps whole letter sequences by table
    gathers, is the one-letter-at-a-time path's, with keys that also permute
    characters the codebook lacks and with glyph indices -1, at and past a
    letter's capacity and past int64."""
    key = keygen(KEYED_CODEBOOK, seed=key_seed)
    key = _with_extra_characters(key) if extra else key
    text = _keyed_text(letters, text_seed)
    _keyed_round_trips(text, KEYED_CODEBOOK, DIFF_CONFIG, key, bits, changes, past)


@pytest.mark.parametrize("value", [-1, "cap", "cap+3", *BEYOND_INT64])
def test_key_refusals_match_index_key_oracle(value):
    """A glyph index the key cannot map, at the first, a middle and the last
    letter, fails extract and verify as the per-letter path fails them."""
    text = _keyed_text(700, seed=41)
    caps = pipeline.letter_sequence(text, KEYED_CODEBOOK).capacities
    key = _with_extra_characters(keygen(KEYED_CODEBOOK, seed=9))
    offset = {"cap": 0, "cap+3": 3}.get(value)
    got = set()
    for i in (0, len(caps) // 2, len(caps) - 1):
        changes, past = ([], [(i, offset)]) if offset is not None else ([(i, value)], [])
        got |= _keyed_round_trips(text, KEYED_CODEBOOK, DIFF_CONFIG, key, "1101", changes, past)
    assert got >= {KeyMismatchError, "mismatch"}  # an uncoded last letter fails no block


# ten primes 127-173: every ten-letter word forms a block whose nine
# smallest moduli multiply past 2^64, so payloads are Python integers
PRIME_CODEBOOK = fixtures.fixture_codebook(
    dict(zip("abcdefghij", (127, 131, 137, 139, 149, 151, 157, 163, 167, 173))), seed=6
)
PRIME_WORDS = ("abcdefghij", "jihgfedcba", "bcdefghija", "fghijabcde", "acegibdfhj")


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(st.sampled_from(PRIME_WORDS), min_size=1, max_size=8),
    key_seed=st.integers(0, 50),
    extra=st.booleans(),
    bits=st.text(alphabet="01", max_size=200),
    changes=GLYPH_CHANGES,
    past=st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from([0, 3])), max_size=2),
)
def test_key_table_gathers_on_payloads_past_int64_match_index_key_oracle(
    words, key_seed, extra, bits, changes, past
):
    """The keyed round trip on payloads wider than 62 bits, whose residues
    are taken from Python integers, is the per-letter path's."""
    config = SignatureConfig(segment_min_letters=10, n=10, k=9)
    caps = pipeline.letter_sequence("".join(words), PRIME_CODEBOOK).capacities
    layout = pipeline._build_layout(caps, 10, 9)
    assert pipeline._payload_dtype(layout.widths) is object
    key = keygen(PRIME_CODEBOOK, seed=key_seed)
    key = _with_extra_characters(key) if extra else key
    _keyed_round_trips(" ".join(words), PRIME_CODEBOOK, config, key, bits, changes, past)
