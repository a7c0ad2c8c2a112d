"""Command-line driver.

One binary with subcommands covering the full workflow: building a codebook,
fitting perceptual scores, capacity reporting, embedding, extraction, channel
simulation, key generation, signing, verification, and a decode benchmark.
All randomness flows from --seed (default 0); outputs are deterministic given
(inputs, seed).  Files are read and written as UTF-8.  Exit codes: 0
success, 2 usage (also a cover text that is not UTF-8), 3 capacity exceeded,
4 decode failure, 5 key mismatch (a key that does not fit the codebook, or a
glyph index the key cannot map), 6 format error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time

import numpy as np

from . import channel, codebook, crypto, fixtures, formats, perceptual, pipeline
from .errors import (
    CapacityExceededError,
    ContractViolation,
    CorruptFrameError,
    DocumentTooSmallError,
    FormatError,
    GlyphcodeError,
    KeyMismatchError,
    PartialDecodeError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_DECODE = 4
EXIT_KEY = 5
EXIT_FORMAT = 6


def _argv_config(args: argparse.Namespace) -> str:
    skip = {"func", "command"}
    parts = [
        f"{k}={v}" for k, v in sorted(vars(args).items()) if k not in skip
    ]
    return " ".join(parts)


def _open(path: str, mode: str = "r"):
    return open(path, mode, encoding="utf-8")


def _read_text(path: str) -> str:
    with _open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ContractViolation(f"{path} is not UTF-8 text: {exc}") from exc


def _read_codebook(path: str) -> codebook.Codebook:
    with _open(path) as fh:
        return formats.read_codebook(fh)


def _read_key(path: str) -> crypto.PermutationKey:
    with _open(path) as fh:
        return formats.read_key(fh)


def cmd_codebook_build(args) -> int:
    if args.candidates < 1:
        raise ContractViolation("--candidates must be at least 1")
    if args.mode == "fixture":
        cb = fixtures.channel_codebook(seed=args.seed)
    else:
        params = channel.ChannelParams(sigma=args.sigma, seed=args.seed)
        oracle, per_glyph = channel.make_codebook_oracles(params)
        chars = sorted(set(args.characters))
        candidates = {
            ch: fixtures.chain_candidates(
                ch, offsets=list(range(args.candidates)), seed=args.seed
            )
            for ch in chars
        }
        originals = {ch: candidates[ch][0] for ch in chars}
        cb = codebook.build_codebook(
            candidates, oracle, per_glyph, originals, seed=args.seed
        )
    with _open(args.output, "w") as fh:
        formats.write_codebook(cb, fh, _argv_config(args))
    return EXIT_OK


def cmd_fit_perceptual(args) -> int:
    with _open(args.responses) as fh:
        responses = formats.read_responses(fh)
    scores, reliabilities, info = perceptual.fit(responses)
    with _open(args.output, "w") as fh:
        formats.write_scores(scores, fh, reliabilities, _argv_config(args))
    print(json.dumps({"iterations": info["iterations"], "objective": info["objective"]}))
    return EXIT_OK


def cmd_capacity(args) -> int:
    cb = _read_codebook(args.codebook)
    if args.text:
        text = _read_text(args.text)
        report = pipeline.capacity_report(cb, text=text, n=args.n, k=args.k)
    else:
        report = pipeline.capacity_report(
            cb,
            frequencies=fixtures.ENGLISH_FREQUENCIES,
            n=args.n,
            k=args.k,
            sample_blocks=args.sample_blocks,
            seed=args.seed,
        )
    if report["letters_for_128_bits"] == math.inf:  # no bits fit; JSON has no Infinity
        report = {**report, "letters_for_128_bits": None}
    print(json.dumps(report))
    return EXIT_OK


def cmd_keygen(args) -> int:
    cb = _read_codebook(args.codebook)
    key = crypto.keygen(cb, seed=args.seed)
    with _open(args.output, "w") as fh:
        formats.write_key(key, fh, _argv_config(args))
    return EXIT_OK


def cmd_embed(args) -> int:
    cb = _read_codebook(args.codebook)
    text = _read_text(args.text)
    with _open(args.message) as fh:
        bits = formats.read_message_bits(fh)
    key = _read_key(args.key) if args.key else None
    doc = pipeline.embed(text, cb, bits, n=args.n, k=args.k, key=key)
    with _open(args.output, "w") as fh:
        formats.write_document(doc, fh, _argv_config(args))
    return EXIT_OK


def cmd_extract(args) -> int:
    cb = _read_codebook(args.codebook)
    with _open(args.document) as fh:
        doc = formats.read_document(fh)
    key = _read_key(args.key) if args.key else None
    trace = None
    if args.trace:
        with _open(args.trace) as fh:
            trace = formats.read_trace(fh)
    bits, report = pipeline.extract(doc, cb, n=args.n, k=args.k, key=key, likelihoods=trace)
    with _open(args.output, "w") as fh:
        formats.write_message_bits(bits, fh, _argv_config(args))
    for outcome in report:
        print(outcome.as_text())
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.blocks < 0:
        raise ContractViolation("--blocks must be non-negative")
    cb = _read_codebook(args.codebook)
    with _open(args.document) as fh:
        doc = formats.read_document(fh)
    seeds = (args.seed + 1000 * t + 1 for t in itertools.count())
    block_params = (channel.ChannelParams(sigma=args.sigma, seed=s) for s in seeds)
    if args.blocks:
        block_params = itertools.islice(block_params, args.blocks)
    out, rows = channel.simulate_document(
        doc, cb, args.errors, block_params, n=args.n, k=args.k
    )
    with _open(args.output, "w") as fh:
        formats.write_document(out, fh, _argv_config(args))
    with _open(args.trace, "w") as fh:
        formats.write_trace(rows, fh, _argv_config(args))
    return EXIT_OK


def _signature_config(args) -> crypto.SignatureConfig:
    return crypto.SignatureConfig(
        hash_id=args.hash_id, segment_min_letters=args.segment_min_letters,
        n=args.n, k=args.k,
    )


def cmd_sign(args) -> int:
    cb = _read_codebook(args.codebook)
    text = _read_text(args.text)
    key = _read_key(args.key)
    doc = crypto.sign_scheme1(text, cb, key, _signature_config(args))
    with _open(args.output, "w") as fh:
        formats.write_document(doc, fh, _argv_config(args))
    return EXIT_OK


def cmd_verify(args) -> int:
    cb = _read_codebook(args.codebook)
    with _open(args.document) as fh:
        doc = formats.read_document(fh)
    key = _read_key(args.key)
    report = crypto.verify(doc, cb, _signature_config(args), key=key)
    print(report.as_text())
    return EXIT_OK if report.overall == "match" else EXIT_DECODE


def cmd_bench(args) -> int:
    cb = fixtures.channel_codebook(seed=args.seed)
    text = fixtures.bench_text(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    seq = pipeline.letter_sequence(text, cb)
    total_bits = pipeline.capacity_report(cb, text=text, n=args.n, k=args.k)["total_bits"]
    bits = "".join(rng.choice(["0", "1"], size=max(1, total_bits - 40)))
    doc = pipeline.embed(text, cb, bits, n=args.n, k=args.k)
    rows = [np.full(c, 1.0 / c) for c in seq.capacities]
    start = time.perf_counter()
    recovered, _ = pipeline.extract(doc, cb, n=args.n, k=args.k, likelihoods=rows)
    elapsed = time.perf_counter() - start
    ok = recovered == bits
    print(json.dumps({"letters": len(seq.letters), "seconds": elapsed, "exact": ok}))
    return EXIT_OK if ok else EXIT_DECODE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glyphcode")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=5)
        p.add_argument("--k", type=int, default=3)

    def signature(p):
        """The options :func:`_signature_config` reads."""
        p.add_argument("--hash-id", default="md5")
        p.add_argument("--segment-min-letters", type=int, default=80)
        common(p)

    p = sub.add_parser("codebook-build", help="build a codebook and write it out")
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=["fixture", "construct"], default="fixture")
    p.add_argument("--characters", default="abcde")
    p.add_argument("--candidates", type=int, default=8)
    p.add_argument("--sigma", type=float, default=channel.DEFAULT_SIGMA)
    p.set_defaults(func=cmd_codebook_build)

    p = sub.add_parser("fit-perceptual", help="fit similarity scores to responses")
    p.add_argument("--responses", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fit_perceptual)

    p = sub.add_parser("capacity", help="report embedding capacity")
    p.add_argument("--codebook", required=True)
    p.add_argument("--text")
    p.add_argument("--sample-blocks", type=int, default=100_000)
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("keygen", help="generate a permutation key")
    p.add_argument("--codebook", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("embed", help="embed a message into a text")
    p.add_argument("--codebook", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--key")
    p.add_argument("--output", required=True)
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover a message from a document")
    p.add_argument("--codebook", required=True)
    p.add_argument("--document", required=True)
    p.add_argument("--key")
    p.add_argument("--trace")
    p.add_argument("--output", required=True)
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("simulate", help="pass a document through the noisy channel")
    p.add_argument("--codebook", required=True)
    p.add_argument("--document", required=True)
    p.add_argument("--errors", type=int, default=1)
    p.add_argument("--blocks", type=int, default=0, help="0 = all blocks")
    p.add_argument("--sigma", type=float, default=channel.DEFAULT_SIGMA)
    p.add_argument("--output", required=True)
    p.add_argument("--trace", required=True)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sign", help="embed per-segment content hashes")
    p.add_argument("--codebook", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--output", required=True)
    signature(p)
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("verify", help="verify per-segment content hashes")
    p.add_argument("--codebook", required=True)
    p.add_argument("--document", required=True)
    p.add_argument("--key", required=True)
    signature(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time extraction on the 176-letter fixture")
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CapacityExceededError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PartialDecodeError, CorruptFrameError, DocumentTooSmallError) as exc:
        print(f"decode failure: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except KeyMismatchError as exc:
        print(f"key mismatch: {exc}", file=sys.stderr)
        return EXIT_KEY
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GlyphcodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
