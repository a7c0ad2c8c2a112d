"""Permutation keys and tamper-localizing signatures.

The symmetric secret is a per-character permutation of the glyph list, so an
extractor without the key sees scrambled integers and a corrupt frame.  For
integrity, the text is split into segments and each segment's content hash is
embedded into that segment; editing a letter breaks exactly one segment's
check, localizing the tampering.
"""

from glyphcode import crypto, fixtures, pipeline
from glyphcode.errors import CorruptFrameError

codebook = fixtures.channel_codebook()
key = crypto.keygen(codebook, seed=42)
print(f"key space: {crypto.key_space_bits(codebook):.0f} bits")

text = fixtures.random_text(90, seed=3)
message = "010011100101"
doc = pipeline.embed(text, codebook, message, key=key)

recovered, _ = pipeline.extract(doc, codebook, key=key)
print(f"with the right key: {recovered} (match: {recovered == message})")

try:
    pipeline.extract(doc, codebook, key=crypto.keygen(codebook, seed=7))
except CorruptFrameError as exc:
    print(f"with a wrong key: corrupt frame ({exc})")

# signatures: embed each segment's hash into the segment itself
sig_codebook = fixtures.signature_codebook()
sig_key = crypto.keygen(sig_codebook, seed=42)
config = crypto.SignatureConfig()
long_text = fixtures.random_text(264, seed=4)
signed = crypto.sign_scheme1(long_text, sig_codebook, sig_key, config)

print("\nverification of the untouched document:")
print(crypto.verify(signed, sig_codebook, config, key=sig_key).as_text())

# tamper with one letter in the middle segment
seq = pipeline.letter_sequence(long_text, sig_codebook)
pos = seq.positions[130]
alt = "a" if long_text[pos] != "a" else "b"
tampered_text = long_text[:pos] + alt + long_text[pos + 1 :]
tampered = pipeline.EncodedDocument(
    tampered_text, signed.glyph_indices, signed.codebook_id
)
print(f"\nafter changing letter {pos} ({long_text[pos]!r} -> {alt!r}):")
print(crypto.verify(tampered, sig_codebook, config, key=sig_key).as_text())

# the asymmetric variant signs the hash, so anyone with the public key checks
signer = crypto.ToyRsaProvider.generate(seed=0)
signed2 = crypto.sign_scheme2(long_text, sig_codebook, signer)
report = crypto.verify(signed2, sig_codebook, config, verifier=signer.public())
print(f"\nasymmetric scheme with the public key: {report.overall}")
