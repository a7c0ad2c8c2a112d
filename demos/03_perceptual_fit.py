"""Perceptual scoring: from pairwise answers to a vetted glyph candidate set.

Raters answer forced-choice questions ("is the middle glyph more similar to
the left or the right one?").  A logistic model jointly fits a similarity
score per glyph and a reliability per rater; high-scoring glyphs become the
candidates for codebook construction, which then prunes any pair the channel
cannot tell apart.
"""

import numpy as np

from glyphcode import channel, fixtures, perceptual
from glyphcode.codebook import build_codebook

rng = np.random.default_rng(0)

# a planted ground truth: 12 glyph variants with known similarity, 60 raters
# with varying (negative = reliable) reliabilities
order = rng.permutation(12)
planted_s = {f"glyph-{i:02d}": float(order[i] / 11.0) for i in range(12)}
planted_r = {f"rater-{i:02d}": float(rng.normal(-6.0, 1.0)) for i in range(60)}

responses = perceptual.synth_responses(planted_s, planted_r, questions_per_rater=16, seed=1)
print(f"{len(responses)} responses from raters passing the consistency screen")

scores, reliabilities, info = perceptual.fit(responses, max_iterations=5000)
print(f"fit converged after {info['iterations']} iterations")

print("\nfitted vs planted similarity:")
for g in sorted(planted_s):
    print(f"  {g}: fitted {scores.s[g]:.2f}, planted {planted_s[g]:.2f}")

candidates = perceptual.select_candidates(scores, threshold=0.5)
print(f"\ncandidates above the similarity threshold: {sorted(candidates)}")

# hand the survivors to codebook construction with a channel-backed oracle;
# the confusion-test loop drops whatever the recognizer confuses
params = channel.ChannelParams(trials=400)
oracle, per_glyph = channel.make_codebook_oracles(params)
offsets = [0.0, 0.4, 1.2, 2.4, 2.8, 4.0]  # two deliberately confusable pairs
cands = {"a": fixtures.chain_candidates("a", offsets)}
codebook = build_codebook(cands, oracle, per_glyph, {"a": cands["a"][0]})
kept = [g.point.x for g in codebook.entries["a"].glyphs]
print(
    f"\nconstruction kept {codebook.capacity('a')} of {len(offsets)} candidates "
    f"(manifold positions {[round(x, 2) for x in kept]})"
)
