import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_identity_and_compose(codebook):
    key = keygen(codebook, seed=1)
    ident = identity_key(codebook)
    assert ident.is_identity()
    assert key.compose(key.inverted()).is_identity()
    assert key.inverted().compose(key).is_identity()
    assert not key.is_identity()


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


def test_key_wider_than_the_codebook_is_refused(codebook, sig_codebook):
    """A key whose permutations cover more glyphs than a letter has is refused
    by extract and verify, although clean blocks never read a likelihood row."""
    def wide(cb):
        return PermutationKey(
            "wide", {ch: tuple(range(cb.capacity(ch) + 1)) for ch in cb.characters()}
        )

    text = fixtures.random_text(90, seed=10)
    doc = pipeline.embed(text, codebook, "1011", key=identity_key(codebook))
    with pytest.raises(KeyMismatchError, match="likelihood row length"):
        pipeline.extract(doc, codebook, key=wide(codebook))
    signed = sign_scheme1(_sig_text(176, seed=20), sig_codebook, identity_key(sig_codebook))
    with pytest.raises(KeyMismatchError, match="likelihood row length"):
        verify(signed, sig_codebook, SignatureConfig(), key=wide(sig_codebook))


def test_clean_keyed_decode_builds_no_likelihood_rows(codebook, sig_codebook, monkeypatch):
    """Rows are read only on a Hamming tie; a clean document has none, so the
    key maps at most one row per distinct letter (its width check)."""
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
    assert len(calls) == len(set(calls)) <= len(codebook.characters())
    calls.clear()
    sig_key = keygen(sig_codebook, seed=4)
    signed = sign_scheme1(_sig_text(600, seed=12), sig_codebook, sig_key)
    assert verify(signed, sig_codebook, SignatureConfig(), key=sig_key).overall == "match"
    assert len(calls) == len(set(calls)) <= len(sig_codebook.characters())


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
    config = SignatureConfig(scheme=2)
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


def test_toy_rsa_provider():
    signer = ToyRsaProvider.generate(seed=5)
    digest = content_hash("hello world")
    sig = signer.sign(digest)
    assert len(sig) == signer.signature_bits
    assert signer.public().check(digest, sig)
    assert not signer.public().check(content_hash("hello worle"), sig)
    with pytest.raises(SigningError):
        signer.public().sign(digest)


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
    the letter sequence and the block partition are built once per call,
    whatever the number of segments."""
    calls = {"letter_sequence": 0, "partition_blocks": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(pipeline, name))
        monkeypatch.setattr(pipeline, name, wrapped)
        monkeypatch.setattr(crypto, name, wrapped)

    def once(run):
        for name in calls:
            calls[name] = 0
        out = run()
        assert calls == {"letter_sequence": 1, "partition_blocks": 1}
        return out

    text = _sig_text(letters, seed=27)
    key = keygen(sig_codebook, seed=12)
    signer = ToyRsaProvider.generate(seed=3)
    config1, config2 = SignatureConfig(), SignatureConfig(scheme=2)
    assert len(segment_text(text, sig_codebook, config1)) >= letters // 100
    doc1 = once(lambda: sign_scheme1(text, sig_codebook, key, config1))
    doc2 = once(lambda: sign_scheme2(text, sig_codebook, signer, config2))
    assert once(lambda: verify(doc1, sig_codebook, config1, key=key)).overall == "match"
    report = once(lambda: verify(doc2, sig_codebook, config2, verifier=signer.public()))
    assert report.overall == "match"
