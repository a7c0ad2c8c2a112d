"""End-to-end embedding: hide a bit string in a text, then get it back.

Letters are grouped into 5-letter blocks; each block stores one integer as
residues against coprime moduli bounded by the letters' glyph counts.  The
demo embeds a message, pushes two blocks through the noisy recognition
channel, and shows the extractor correcting the injected misreads.
"""

from glyphcode import channel, fixtures, pipeline

codebook = fixtures.channel_codebook()
report = pipeline.capacity_report(
    codebook, frequencies=fixtures.ENGLISH_FREQUENCIES, sample_blocks=20_000
)
print(
    f"codebook capacity: {report['bits_per_letter']:.2f} bits/letter, "
    f"{report['letters_for_128_bits']} letters for a 128-bit payload"
)

text = fixtures.random_text(90, seed=1)
message = "1100101001101110"
print(f"\ncover text ({len(text)} chars): {text!r}")
print(f"message: {message}")

doc = pipeline.embed(text, codebook, message)
print(f"embedded glyph indices: {doc.glyph_indices[:20]}...")

recovered, outcomes = pipeline.extract(doc, codebook)
print(f"\nclean extraction: {recovered} (match: {recovered == message})")

# run the first two blocks through the channel with one misread each
params = [channel.ChannelParams(seed=100 + t) for t in range(2)]
noisy, rows = channel.simulate_document(doc, codebook, 1, params)

recovered, outcomes = pipeline.extract(noisy, codebook, likelihoods=rows)
print(f"\nnoisy extraction: {recovered} (match: {recovered == message})")
print("per-block decode report:")
for outcome in outcomes:
    print("  " + outcome.as_text())
