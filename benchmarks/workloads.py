"""The four benchmark workloads.

Each workload is a closed loop with one client: an op starts only when the
previous one has finished.  ``inputs`` makes an op's inputs from the seed
alone, ``op`` runs it through the library's public functions, timing each
call on a :class:`harness.Recorder`, and checks every output.  Untraced, embed
and extract are the library's ``pipeline.embed``/``pipeline.extract``.
Traced, they are rebuilt from their public parts so that each layer gets its
own span, and a differential guard requires the rebuilt output to equal the
library's on the same op.
"""

from __future__ import annotations

import hashlib
import io
import zlib
from dataclasses import dataclass, field

import numpy as np

from glyphcode import channel, codebook, crc, crypto, fixtures, formats, perceptual, pipeline
from glyphcode.errors import GlyphcodeError, PartialDecodeError

from harness import CheckFailed, Recorder

BLOCK_N, BLOCK_K = 5, 3
LETTERS = sorted(fixtures.ENGLISH_FREQUENCIES)
_WEIGHTS = np.array([fixtures.ENGLISH_FREQUENCIES[c] for c in LETTERS])
_WEIGHTS = _WEIGHTS / _WEIGHTS.sum()


@dataclass
class Outcome:
    """What one op did: whether its message came back, the work handed to
    each timed call (letters, or characters built and fits run), and the
    digests of what it wrote."""

    ok: bool = True
    work: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def op_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def english_text(rng: np.random.Generator, letters: int) -> str:
    """English-frequency lowercase letters in five-letter words."""
    picks = rng.choice(len(LETTERS), size=letters, p=_WEIGHTS)
    text = "".join(LETTERS[p] for p in picks)
    return " ".join(text[i : i + 5] for i in range(0, letters, 5))


def random_bits(rng: np.random.Generator, count: int) -> str:
    return (rng.integers(0, 2, size=count, dtype=np.uint8) + ord("0")).tobytes().decode()


def seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_codebook(cb: codebook.Codebook) -> codebook.Codebook:
    """The codebook as a CLI user holds it: written out and read back."""
    buf = io.StringIO()
    formats.write_codebook(cb, buf)
    return formats.read_codebook(io.StringIO(buf.getvalue()))


# ---------------------------------------------------------------- embed/extract


def _rebuilt_embed(rec: Recorder, text, cb, bits, key):
    """``pipeline.embed`` from its public parts, one span per layer."""
    with rec.span("pipeline.embed"):
        seq = rec.call("pipeline.letter_sequence", pipeline.letter_sequence, text, cb)
        blocks = rec.call(
            "pipeline.partition_blocks", pipeline.partition_blocks, seq, BLOCK_N, BLOCK_K
        )
        with rec.span("pipeline.frame"):
            framed = pipeline.frame_message(bits, sum(b.bit_width for b in blocks))
            payloads = pipeline.chunk_message(framed, blocks)
        indices = [0] * len(seq.letters)
        for block, m in zip(blocks, payloads):
            residues = rec.call("crc.encode_phi", crc.encode_phi, m, block.moduli)
            for i, r in zip(block.member_indices, residues):
                indices[i] = r
        if key is not None:
            with rec.span("crypto.key_map"):
                indices = [key.forward(seq.letters[i], v) for i, v in enumerate(indices)]
    return pipeline.EncodedDocument(text, tuple(indices), cb.font_id)


def embed(rec: Recorder, text, cb, bits, key=None) -> pipeline.EncodedDocument:
    if not rec.traced:
        return rec.call(
            "pipeline.embed", pipeline.embed, text, cb, bits, BLOCK_N, BLOCK_K, key=key
        )
    doc = _rebuilt_embed(rec, text, cb, bits, key)
    want = pipeline.embed(text, cb, bits, BLOCK_N, BLOCK_K, key=key)
    if doc != want:
        raise CheckFailed("traced embed differs from pipeline.embed")
    return doc


def _rebuilt_extract(rec: Recorder, doc, cb, key, likelihoods, statuses: list):
    """``pipeline.extract`` from its public parts, one span per layer."""
    with rec.span("pipeline.extract"):
        seq = rec.call("pipeline.letter_sequence", pipeline.letter_sequence, doc.text, cb)
        blocks = rec.call(
            "pipeline.partition_blocks", pipeline.partition_blocks, seq, BLOCK_N, BLOCK_K
        )
        indices = list(doc.glyph_indices)
        rows = [
            np.asarray(likelihoods[i], dtype=float)
            if likelihoods is not None
            else np.full(cap, 1.0 / cap)
            for i, cap in enumerate(seq.capacities)
        ]
        if key is not None:
            with rec.span("crypto.key_map"):
                for i, ch in enumerate(seq.letters):
                    indices[i] = key.inverse(ch, indices[i])
                    rows[i] = key.inverse_row(ch, rows[i])
        parts = []
        for t, block in enumerate(blocks):
            vector = [indices[i] for i in block.member_indices]
            g = [rows[i] for i in block.member_indices]
            with rec.span("crc.ml_decode"):
                outcome = crc.ml_decode(vector, block.moduli, g=g)
            span = rec.spans[-1]
            statuses.append(outcome.status)
            rec.count("crc.ml_decode." + outcome.status.replace("-", "_"))
            if outcome.status.startswith("corrected"):
                rec.sample("crc.ml_decode.corrected_us", (span.end - span.start) * 1e6)
            if outcome.m is None:
                raise PartialDecodeError(t)
            parts.append(format(outcome.m, f"0{block.bit_width}b")[-block.bit_width :])
        with rec.span("pipeline.frame"):
            return pipeline.unframe_message("".join(parts))


def _attempt(fn):
    try:
        return fn(), None
    except GlyphcodeError as exc:
        return None, exc


def extract(rec: Recorder, doc, cb, key=None, likelihoods=None) -> tuple[str, list[str]]:
    """Message bits and per-block decode statuses; raises the library's
    decode errors unchanged."""
    if not rec.traced:
        bits, report = rec.call(
            "pipeline.extract", pipeline.extract, doc, cb, BLOCK_N, BLOCK_K,
            key=key, likelihoods=likelihoods,
        )
        return bits, [o.status for o in report]
    statuses: list[str] = []
    bits, err = _attempt(lambda: _rebuilt_extract(rec, doc, cb, key, likelihoods, statuses))
    want, want_err = _attempt(
        lambda: pipeline.extract(doc, cb, BLOCK_N, BLOCK_K, key=key, likelihoods=likelihoods)
    )
    if err is not None or want_err is not None:
        same = (type(err), getattr(err, "args", None)) == (
            type(want_err), getattr(want_err, "args", None)
        )
        if not same:
            raise CheckFailed(f"traced extract raised {err!r}, pipeline.extract {want_err!r}")
        raise err
    if (bits, statuses) != (want[0], [o.status for o in want[1]]):
        raise CheckFailed("traced extract differs from pipeline.extract")
    return bits, statuses


def round_trip_document(rec: Recorder, doc) -> tuple[pipeline.EncodedDocument, str]:
    buf = io.StringIO()
    rec.call("formats.write_document", formats.write_document, doc, buf)
    written = buf.getvalue()
    back = rec.call("formats.read_document", formats.read_document, io.StringIO(written))
    if back != doc:
        raise CheckFailed("document changed through write_document/read_document")
    return back, written


class Workload:
    name = ""
    why = ""
    may_fail = False  # ops may fail by design; a failure is then counted, not a defect

    def __init__(self):
        self.seen_tuples: set[tuple[int, ...]] = set()

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def op(self, rec: Recorder, inputs) -> Outcome:
        raise NotImplementedError

    def note_blocks(self, rec: Recorder, text: str, cb):
        """Count the block capacity tuples this process has not seen before.

        Runs after the op's timed calls, when the moduli cache is already warm.
        """
        seq = pipeline.letter_sequence(text, cb)
        blocks = pipeline.partition_blocks(seq, BLOCK_N, BLOCK_K)
        tuples = [tuple(seq.capacities[i] for i in b.member_indices) for b in blocks]
        rec.count("pipeline.partition_blocks.blocks", len(blocks))
        rec.count("pipeline.partition_blocks.new_tuples", len(set(tuples) - self.seen_tuples))
        self.seen_tuples.update(tuples)
        return seq, blocks


# ---------------------------------------------------------------- workloads


class DocClean(Workload):
    name = "doc10k_clean"
    why = (
        "README/CLI flow on a 10k-letter keyed document with sign and verify: "
        "warm moduli cache, exact decode path, formats and quadratic crypto"
    )

    def __init__(self, letters: int = 10_000):
        super().__init__()
        self.letters = letters

    def setup(self) -> None:
        self.cb = load_codebook(fixtures.channel_codebook())
        self.config = crypto.SignatureConfig()

    def inputs(self, seed: int, index: int):
        rng = op_rng(self.name, seed, index)
        text = english_text(rng, self.letters)
        key = crypto.keygen(self.cb, seed=seed_int(rng))
        # the channel codebook holds about 1.78 bits per letter
        bits = random_bits(rng, int(1.70 * self.letters) - pipeline.LENGTH_PREFIX_BITS)
        return text, key, bits

    def op(self, rec: Recorder, inputs) -> Outcome:
        text, key, bits = inputs
        doc = embed(rec, text, self.cb, bits, key)
        back, written = round_trip_document(rec, doc)
        got, statuses = extract(rec, back, self.cb, key)
        if got != bits or set(statuses) != {"exact"}:
            raise CheckFailed("clean extract did not return the message on the exact path")
        segments = rec.call("crypto.segment_text", crypto.segment_text, text, self.cb, self.config)
        signed = rec.call("crypto.sign_scheme1", crypto.sign_scheme1, text, self.cb, key, self.config)
        report = rec.call("crypto.verify", crypto.verify, signed, self.cb, self.config, key=key)
        ranges = [(s.seq_start, s.seq_end) for s in segments]
        if report.overall != "match" or [(r.seq_start, r.seq_end) for r in report.per_segment] != ranges:
            raise CheckFailed("verify did not match every segment of the signed document")
        self.note_blocks(rec, text, self.cb)
        n = self.letters
        return Outcome(
            work={"pipeline.embed": n, "pipeline.extract": n,
                  "crypto.sign_scheme1": n, "crypto.verify": n},
            digests={"document": sha256(written)},
        )


class WideOneError(Workload):
    name = "wide1k_1err"
    why = (
        "26 capacity levels (15-40) and one wrong letter per block: cold moduli "
        "search, brute-force corrected decode and the residue-table memory"
    )

    def __init__(self, letters: int = 1_000):
        super().__init__()
        self.letters = letters

    def setup(self) -> None:
        by_frequency = sorted(LETTERS, key=lambda c: -fixtures.ENGLISH_FREQUENCIES[c])
        caps = {c: 40 - rank for rank, c in enumerate(by_frequency)}
        self.cb = load_codebook(fixtures.fixture_codebook(caps, font_id="chain-wide26"))

    def inputs(self, seed: int, index: int):
        rng = op_rng(self.name, seed, index)
        text = english_text(rng, self.letters)
        # these capacities hold about 2.8 bits per letter
        bits = random_bits(rng, int(2.70 * self.letters) - pipeline.LENGTH_PREFIX_BITS)
        return text, bits, rng

    def op(self, rec: Recorder, inputs) -> Outcome:
        text, bits, rng = inputs
        doc = embed(rec, text, self.cb, bits)
        seq, blocks = self.note_blocks(rec, text, self.cb)
        caps = seq.capacities
        indices = list(doc.glyph_indices)
        for block in blocks:  # one letter per block misread as its chain neighbour
            i = block.member_indices[int(rng.integers(BLOCK_N))]
            v = indices[i]
            up = v == 0 or (v < caps[i] - 1 and rng.random() < 0.5)
            indices[i] = v + 1 if up else v - 1
        noisy = pipeline.EncodedDocument(text, tuple(indices), doc.codebook_id)
        back, written = round_trip_document(rec, noisy)
        got, statuses = extract(rec, back, self.cb)
        if got != bits or set(statuses) != {"corrected"}:
            raise CheckFailed("one error per block was not corrected")
        n = self.letters
        return Outcome(
            work={"pipeline.embed": n, "pipeline.extract": n},
            digests={"document": sha256(written)},
        )


class ChannelTwoErrors(Workload):
    name = "channel_2err"
    why = (
        "criterion-8 regime: capacities 2,3,5,29,31 and two channel errors in "
        "every block, so the channel and the ML tie-break dominate"
    )
    may_fail = True  # two errors exceed the guaranteed one-error correction

    def __init__(self, repeats: int = 12):
        super().__init__()
        self.text = " ".join(["vwxyz"] * repeats)

    def setup(self) -> None:
        caps = {"v": 2, "w": 3, "x": 5, "y": 29, "z": 31}
        self.cb = load_codebook(fixtures.fixture_codebook(caps, font_id="chain-redundant"))
        seq = pipeline.letter_sequence(self.text, self.cb)
        self.letters = seq.letters
        self.blocks = pipeline.partition_blocks(seq, BLOCK_N, BLOCK_K)
        self.capacity = sum(b.bit_width for b in self.blocks) - pipeline.LENGTH_PREFIX_BITS

    def inputs(self, seed: int, index: int):
        rng = op_rng(self.name, seed, index)
        bits = random_bits(rng, self.capacity)
        params = [channel.ChannelParams(seed=seed_int(rng)) for _ in self.blocks]
        return bits, params

    def op(self, rec: Recorder, inputs) -> Outcome:
        bits, params = inputs
        doc = embed(rec, self.text, self.cb, bits)
        indices = list(doc.glyph_indices)
        rows: list = [None] * len(indices)
        for block, p in zip(self.blocks, params):
            members = block.member_indices
            observed, table = rec.call(
                "channel.inject_errors", channel.inject_errors,
                [indices[i] for i in members],
                [self.cb.entry(self.letters[i]) for i in members], 2, p,
            )
            rec.count("channel.inject_errors.calls")
            for i, v, row in zip(members, observed, table):
                indices[i] = v
                rows[i] = row
        noisy = pipeline.EncodedDocument(self.text, tuple(indices), doc.codebook_id)
        back, written = round_trip_document(rec, noisy)
        buf = io.StringIO()
        rec.call("formats.write_trace", formats.write_trace, rows, buf)
        trace = buf.getvalue()
        back_rows = rec.call("formats.read_trace", formats.read_trace, io.StringIO(trace))
        if len(back_rows) != len(rows) or not all(map(np.array_equal, back_rows, rows)):
            raise CheckFailed("trace changed through write_trace/read_trace")
        self.note_blocks(rec, self.text, self.cb)
        n = len(self.letters)
        out = Outcome(
            work={"pipeline.embed": n, "pipeline.extract": n, "channel.inject_errors": n},
            digests={"document": sha256(written), "trace": sha256(trace)},
        )
        try:
            got, _ = extract(rec, back, self.cb, likelihoods=back_rows)
            out.ok = got == bits
        except GlyphcodeError:
            out.ok = False
        return out


def kendall_tau(a, b) -> float:
    n = len(a)
    s = sum(
        np.sign(a[i] - a[j]) * np.sign(b[i] - b[j]) for i in range(n) for j in range(i + 1, n)
    )
    return float(s) / (n * (n - 1) / 2)


class FontPrep(Workload):
    name = "font_prep"
    why = (
        "offline font preparation per character: 2AFC synthesis, perceptual fit, "
        "candidate selection and codebook construction against channel oracles"
    )
    THRESHOLD = 0.5

    def __init__(self, candidates: int = 12, raters: int = 200):
        super().__init__()
        self.candidates = candidates
        self.raters = raters

    def setup(self) -> None:
        pass  # oracles take their seed from each op's inputs

    def inputs(self, seed: int, index: int):
        rng = op_rng(self.name, seed, index)
        ch = LETTERS[int(rng.integers(len(LETTERS)))]
        # chain offsets in steps of about half a glyph spacing, so adjacent
        # candidates are confusable and construction has pairs to prune
        offsets = [0.0] + sorted(
            (np.arange(1, self.candidates) * 0.5 + rng.uniform(-0.1, 0.1, self.candidates - 1)).tolist()
        )
        planted_s = {g: 1.0 - o / offsets[-1] for g, o in enumerate(offsets)}
        planted_r = {f"u{u:03d}": float(rng.normal(-8.0, 1.0)) for u in range(self.raters)}
        cands = fixtures.chain_candidates(ch, offsets)
        params = channel.ChannelParams(seed=seed_int(rng))
        return ch, planted_s, planted_r, seed_int(rng), cands, params, seed_int(rng)

    def op(self, rec: Recorder, inputs) -> Outcome:
        ch, planted_s, planted_r, synth_seed, cands, params, build_seed = inputs
        responses = rec.call(
            "perceptual.synth_responses", perceptual.synth_responses,
            planted_s, planted_r, 16, synth_seed,
        )
        scores, _, info = rec.call("perceptual.fit", perceptual.fit, responses)
        rec.count("perceptual.fit.iterations", info["iterations"])
        selected = rec.call(
            "perceptual.select_candidates", perceptual.select_candidates, scores, self.THRESHOLD
        )
        glyphs = sorted(planted_s)
        tau = kendall_tau([planted_s[g] for g in glyphs], [scores.s[g] for g in glyphs])
        clear = {g for g in glyphs if planted_s[g] > self.THRESHOLD + 0.15}
        if tau < 0.8 or not clear <= selected or any(
            planted_s[g] < self.THRESHOLD - 0.15 for g in selected
        ):
            raise CheckFailed(f"perceptual fit missed the planted order (tau {tau:.3f})")

        chosen = [cands[g] for g in sorted(selected)]
        oracle, per_glyph = channel.make_codebook_oracles(params)
        if rec.traced:
            oracle, per_glyph = self._traced(rec, oracle), self._traced(rec, per_glyph)
        cb = rec.call(
            "codebook.build_codebook", codebook.build_codebook,
            {ch: chosen}, oracle, per_glyph, {ch: cands[0]},
            font_id="bench-font", seed=build_seed,
        )
        kept = cb.entries[ch].glyphs
        rec.count("codebook.kept", len(kept))
        rec.count("codebook.candidates", len(chosen))
        chosen_points = {c.point for c in chosen}
        if not kept or any(g.point not in chosen_points for g in kept):
            raise CheckFailed("built codebook holds glyphs that were not candidates")

        buf = io.StringIO()
        rec.call("formats.write_codebook", formats.write_codebook, cb, buf)
        written = buf.getvalue()
        back = rec.call("formats.read_codebook", formats.read_codebook, io.StringIO(written))
        again = io.StringIO()
        formats.write_codebook(back, again)
        if again.getvalue() != written:
            raise CheckFailed("codebook changed through write_codebook/read_codebook")
        return Outcome(
            work={"codebook.build_codebook": 1, "perceptual.fit": 1},
            digests={"codebook": sha256(written)},
        )

    @staticmethod
    def _traced(rec: Recorder, fn):
        def timed(*args):
            rec.count("channel.oracle.calls")
            return rec.call("channel.oracle", fn, *args)

        return timed


WORKLOADS = {w.name: w for w in (DocClean, WideOneError, ChannelTwoErrors, FontPrep)}
