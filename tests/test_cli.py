import json
import math
import re

import pytest

from glyphcode import crypto, fixtures, formats, perceptual, pipeline
from glyphcode.cli import (
    EXIT_CAPACITY,
    EXIT_DECODE,
    EXIT_FORMAT,
    EXIT_KEY,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from glyphcode.errors import ContractViolation


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cb_path = root / "codebook.txt"
    assert main(["codebook-build", "--output", str(cb_path)]) == EXIT_OK
    text_path = root / "text.txt"
    text_path.write_text(fixtures.random_text(120, seed=42))
    msg_path = root / "message.txt"
    with open(msg_path, "w") as fh:
        formats.write_message_bits("1101001110001011", fh)
    return root


def test_embed_extract_round_trip(workspace, capsys):
    doc = workspace / "doc.txt"
    out = workspace / "recovered.txt"
    args = [
        "embed",
        "--codebook", str(workspace / "codebook.txt"),
        "--text", str(workspace / "text.txt"),
        "--message", str(workspace / "message.txt"),
        "--output", str(doc),
    ]
    assert main(args) == EXIT_OK
    args = [
        "extract",
        "--codebook", str(workspace / "codebook.txt"),
        "--document", str(doc),
        "--output", str(out),
    ]
    assert main(args) == EXIT_OK
    captured = capsys.readouterr()
    assert "exact" in captured.out
    with open(out) as fh:
        assert formats.read_message_bits(fh) == "1101001110001011"


def test_keygen_changes_embedding(workspace):
    key_path = workspace / "key.txt"
    args = ["keygen", "--codebook", str(workspace / "codebook.txt"), "--output", str(key_path)]
    assert main(["--seed", "5"] + args) == EXIT_OK
    doc_plain = workspace / "doc_plain.txt"
    doc_keyed = workspace / "doc_keyed.txt"
    base = [
        "embed",
        "--codebook", str(workspace / "codebook.txt"),
        "--text", str(workspace / "text.txt"),
        "--message", str(workspace / "message.txt"),
    ]
    assert main(base + ["--output", str(doc_plain)]) == EXIT_OK
    assert main(base + ["--key", str(key_path), "--output", str(doc_keyed)]) == EXIT_OK
    with open(doc_plain) as fh:
        plain = formats.read_document(fh)
    with open(doc_keyed) as fh:
        keyed = formats.read_document(fh)
    assert plain.glyph_indices != keyed.glyph_indices
    out = workspace / "keyed_recovered.txt"
    args = [
        "extract",
        "--codebook", str(workspace / "codebook.txt"),
        "--document", str(doc_keyed),
        "--key", str(key_path),
        "--output", str(out),
    ]
    assert main(args) == EXIT_OK
    with open(out) as fh:
        assert formats.read_message_bits(fh) == "1101001110001011"


def test_simulate_then_extract_corrects(workspace, capsys):
    doc = workspace / "sim_doc.txt"
    args = [
        "embed",
        "--codebook", str(workspace / "codebook.txt"),
        "--text", str(workspace / "text.txt"),
        "--message", str(workspace / "message.txt"),
        "--output", str(doc),
    ]
    assert main(args) == EXIT_OK
    noisy = workspace / "noisy.txt"
    trace = workspace / "trace.txt"
    out = workspace / "sim_recovered.txt"
    args = [
        "simulate",
        "--codebook", str(workspace / "codebook.txt"),
        "--document", str(doc),
        "--errors", "1",
        "--blocks", "2",
        "--output", str(noisy),
        "--trace", str(trace),
    ]
    assert main(args) == EXIT_OK
    args = [
        "extract",
        "--codebook", str(workspace / "codebook.txt"),
        "--document", str(noisy),
        "--trace", str(trace),
        "--output", str(out),
    ]
    assert main(args) == EXIT_OK
    captured = capsys.readouterr()
    assert "corrected" in captured.out
    with open(out) as fh:
        assert formats.read_message_bits(fh) == "1101001110001011"


def test_non_finite_trace_exits_with_format_error(workspace, tmp_path):
    """A channel trace holding a NaN likelihood is a malformed file (exit 6);
    it used to be read and could decide a tied block."""
    doc = _embedded(workspace, tmp_path)
    args = _simulate_args(workspace, doc, tmp_path, "--errors", "2", "--blocks", "1")
    assert main(args) == EXIT_OK
    trace = tmp_path / "trace.txt"
    lines = trace.read_text().splitlines()
    head, *probabilities = lines[1].split()
    lines[1] = " ".join([head, "nan"] + probabilities[1:])
    trace.write_text("\n".join(lines) + "\n")
    args = [
        "extract",
        "--codebook", str(workspace / "codebook.txt"),
        "--document", str(tmp_path / "noisy.txt"),
        "--trace", str(trace),
        "--output", str(tmp_path / "recovered.txt"),
    ]
    assert main(args) == EXIT_FORMAT


def _embedded(workspace, tmp_path):
    doc = tmp_path / "doc.txt"
    args = [
        "embed",
        "--codebook", str(workspace / "codebook.txt"),
        "--text", str(workspace / "text.txt"),
        "--message", str(workspace / "message.txt"),
        "--output", str(doc),
    ]
    assert main(args) == EXIT_OK
    return doc


def _simulate_args(workspace, document, tmp_path, *extra):
    return [
        "simulate",
        "--codebook", str(workspace / "codebook.txt"),
        "--document", str(document),
        "--output", str(tmp_path / "noisy.txt"),
        "--trace", str(tmp_path / "trace.txt"),
        *extra,
    ]


def test_simulate_refuses_negative_block_count(workspace, tmp_path):
    doc = _embedded(workspace, tmp_path)
    assert main(_simulate_args(workspace, doc, tmp_path, "--blocks", "-1")) == EXIT_USAGE
    assert not (tmp_path / "noisy.txt").exists()
    assert main(_simulate_args(workspace, doc, tmp_path, "--blocks", "1")) == EXIT_OK


def test_simulate_short_document_exits_like_extract(workspace, tmp_path, capsys):
    doc = _embedded(workspace, tmp_path)
    lines = doc.read_text().splitlines()
    assert lines[-1].startswith("indices ")
    lines[-1] = " ".join(lines[-1].split()[:51])  # keep 50 indices
    doc.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    extract = [
        "extract",
        "--codebook", str(workspace / "codebook.txt"),
        "--document", str(doc),
        "--output", str(tmp_path / "bits.txt"),
    ]
    assert main(extract) == EXIT_USAGE
    extract_err = capsys.readouterr().err
    assert main(_simulate_args(workspace, doc, tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err == extract_err
    assert "glyph index stream does not match the letter count" in extract_err



def test_codebook_with_a_short_outline_exits_with_format_error(workspace, tmp_path):
    doc = _embedded(workspace, tmp_path)
    lines = (workspace / "codebook.txt").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("glyph "))
    lines[at] = lines[at].rsplit(" ", 2)[0]  # one vertex fewer than resample_count
    short = tmp_path / "short_codebook.txt"
    short.write_text("\n".join(lines) + "\n")
    simulate = _simulate_args(workspace, doc, tmp_path)
    simulate[simulate.index("--codebook") + 1] = str(short)
    assert main(simulate) == EXIT_FORMAT
    extract = [
        "extract",
        "--codebook", str(short),
        "--document", str(doc),
        "--output", str(tmp_path / "bits.txt"),
    ]
    assert main(extract) == EXIT_FORMAT

def test_capacity_json(workspace, capsys):
    args = [
        "capacity",
        "--codebook", str(workspace / "codebook.txt"),
        "--text", str(workspace / "text.txt"),
    ]
    assert main(args) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["letters"] == 120
    assert report["total_bits"] > 128


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("sample_blocks", ["0", "20"])
def test_capacity_prints_strict_json(workspace, capsys, sample_blocks):
    """With no bits sampled, no count of letters holds 128 bits: null, not
    the Infinity that strict JSON parsers refuse."""
    args = [
        "capacity",
        "--codebook", str(workspace / "codebook.txt"),
        "--sample-blocks", sample_blocks,
    ]
    assert main(args) == EXIT_OK
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    if sample_blocks == "0":
        assert report == {
            "total_bits": 0, "letters": 0, "bits_per_letter": 0.0, "letters_for_128_bits": None
        }
    else:
        assert report["letters_for_128_bits"] == math.ceil(128 / report["bits_per_letter"])


def test_sign_verify_cli(workspace, capsys):
    long_text = workspace / "long.txt"
    long_text.write_text(fixtures.random_text(176, seed=7))
    cb_path = workspace / "sig_codebook.txt"
    with open(cb_path, "w") as fh:
        formats.write_codebook(fixtures.signature_codebook(), fh)
    key_path = workspace / "sig_key.txt"
    assert main(["keygen", "--codebook", str(cb_path), "--output", str(key_path)]) == EXIT_OK
    signed = workspace / "signed.txt"
    args = [
        "sign",
        "--codebook", str(cb_path),
        "--text", str(long_text),
        "--key", str(key_path),
        "--output", str(signed),
    ]
    assert main(args) == EXIT_OK
    args = [
        "verify",
        "--codebook", str(cb_path),
        "--document", str(signed),
        "--key", str(key_path),
    ]
    assert main(args) == EXIT_OK
    assert "overall: match" in capsys.readouterr().out
    wrong_key = workspace / "wrong_key.txt"
    assert main(["--seed", "77", "keygen", "--codebook", str(cb_path), "--output", str(wrong_key)]) == EXIT_OK
    args[-1] = str(wrong_key)
    assert main(args) == EXIT_DECODE


def test_verify_short_document_exits_with_decode_error(workspace, tmp_path, capsys):
    text = tmp_path / "long.txt"
    text.write_text(fixtures.random_text(264, seed=21))
    cb_path = tmp_path / "sig_codebook.txt"
    with open(cb_path, "w") as fh:
        formats.write_codebook(fixtures.signature_codebook(), fh)
    key_path = tmp_path / "sig_key.txt"
    assert main(["keygen", "--codebook", str(cb_path), "--output", str(key_path)]) == EXIT_OK
    signed = tmp_path / "signed.txt"
    args = ["sign", "--codebook", str(cb_path), "--text", str(text), "--key", str(key_path)]
    assert main(args + ["--output", str(signed)]) == EXIT_OK
    lines = signed.read_text().splitlines()
    assert lines[-1].startswith("indices ")
    lines[-1] = " ".join(lines[-1].split()[:101])  # keep 100 indices
    signed.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    args = ["verify", "--codebook", str(cb_path), "--document", str(signed), "--key", str(key_path)]
    assert main(args) == EXIT_DECODE
    out = capsys.readouterr().out
    assert "overall: mismatch" in out and "extraction-failed" in out


def test_fit_perceptual_writes_the_fitted_scores(tmp_path, capsys):
    planted_s = {f"g{i}": i / 5 for i in range(6)}
    planted_r = {f"r{i}": -6.0 for i in range(30)}
    responses_path = tmp_path / "responses.txt"
    with open(responses_path, "w") as fh:
        formats.write_responses(perceptual.synth_responses(planted_s, planted_r, seed=3), fh)
    scores_path = tmp_path / "scores.txt"
    args = ["fit-perceptual", "--responses", str(responses_path), "--output", str(scores_path)]
    assert main(args) == EXIT_OK
    with open(responses_path) as fh:
        scores, reliabilities, info = perceptual.fit(formats.read_responses(fh))
    assert json.loads(capsys.readouterr().out) == {
        "iterations": info["iterations"],
        "objective": info["objective"],
    }
    with open(scores_path) as fh:
        read_s, read_r = formats.read_scores(fh)
    assert read_s.s == scores.s
    assert read_r.r == reliabilities.r


def test_keyed_document_without_key_exits_with_decode_failure(workspace, tmp_path, capsys):
    key_path = tmp_path / "key.txt"
    cb_path = str(workspace / "codebook.txt")
    assert main(["keygen", "--codebook", cb_path, "--output", str(key_path)]) == EXIT_OK
    doc = tmp_path / "doc.txt"
    args = [
        "embed",
        "--codebook", cb_path,
        "--text", str(workspace / "text.txt"),
        "--message", str(workspace / "message.txt"),
        "--key", str(key_path),
        "--output", str(doc),
    ]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    args = ["extract", "--codebook", cb_path, "--document", str(doc), "--output", str(tmp_path / "out.txt")]
    assert main(args) == EXIT_DECODE
    err = capsys.readouterr().err
    assert re.fullmatch(r"decode failure: length prefix \d+ exceeds available \d+ bits\n", err)


def test_exit_codes(workspace, tmp_path):
    # usage: unknown subcommand
    assert main(["no-such-command"]) == EXIT_USAGE
    # capacity exceeded: message longer than the text can hold
    big = tmp_path / "big.txt"
    with open(big, "w") as fh:
        formats.write_message_bits("1" * 5000, fh)
    args = [
        "embed",
        "--codebook", str(workspace / "codebook.txt"),
        "--text", str(workspace / "text.txt"),
        "--message", str(big),
        "--output", str(tmp_path / "never.txt"),
    ]
    assert main(args) == EXIT_CAPACITY
    # format error: feeding a message file where a codebook is expected
    args = [
        "capacity",
        "--codebook", str(workspace / "message.txt"),
        "--text", str(workspace / "text.txt"),
    ]
    assert main(args) == EXIT_FORMAT
    # usage: missing file
    args = [
        "capacity",
        "--codebook", str(tmp_path / "absent.txt"),
        "--text", str(workspace / "text.txt"),
    ]
    assert main(args) == EXIT_USAGE


def test_bench_reports_exact(capsys):
    assert main(["bench"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["exact"] is True
    assert report["letters"] == 176
    assert report["seconds"] < 0.9


def test_malformed_files_exit_with_format_error(workspace, tmp_path):
    lines = (workspace / "codebook.txt").read_text().splitlines()
    truncated = tmp_path / "truncated_codebook.txt"
    truncated.write_text("\n".join(lines[:5]) + "\n")
    args = [
        "capacity",
        "--codebook", str(truncated),
        "--text", str(workspace / "text.txt"),
    ]
    assert main(args) == EXIT_FORMAT
    key = tmp_path / "key.txt"
    key.write_text(
        f"# glyphcode {formats.TOOL_VERSION} key\nkey_id \"k\"\n"
        'character "a" perm 0 0 1\n'
    )
    args = [
        "embed",
        "--codebook", str(workspace / "codebook.txt"),
        "--text", str(workspace / "text.txt"),
        "--message", str(workspace / "message.txt"),
        "--key", str(key),
        "--output", str(tmp_path / "never.txt"),
    ]
    assert main(args) == EXIT_FORMAT


def _write_key(path, key):
    with open(path, "w", encoding="utf-8") as fh:
        formats.write_key(key, fh)


def test_key_that_does_not_fit_the_codebook_exits_with_key_mismatch(workspace, tmp_path):
    """A key without a codebook letter makes verify exit 5, not report every
    segment as tampered; a key one glyph too long for a letter makes embed
    exit 5 and write no document."""
    text = tmp_path / "long.txt"
    text.write_text(fixtures.random_text(176, seed=7))
    sig_codebook = fixtures.signature_codebook()
    cb_path = tmp_path / "sig_codebook.txt"
    with open(cb_path, "w", encoding="utf-8") as fh:
        formats.write_codebook(sig_codebook, fh)
    key = crypto.keygen(sig_codebook, seed=0)
    key_path = tmp_path / "sig_key.txt"
    _write_key(key_path, key)
    signed = tmp_path / "signed.txt"
    args = ["sign", "--codebook", str(cb_path), "--text", str(text), "--key", str(key_path)]
    assert main(args + ["--output", str(signed)]) == EXIT_OK
    missing = tmp_path / "missing_key.txt"
    perms = {ch: perm for ch, perm in key.perms.items() if ch != "e"}
    _write_key(missing, crypto.PermutationKey("missing", perms))
    args = ["verify", "--codebook", str(cb_path), "--document", str(signed), "--key", str(missing)]
    assert main(args) == EXIT_KEY

    long_key = tmp_path / "long_key.txt"
    with open(workspace / "codebook.txt", encoding="utf-8") as fh:
        cb = formats.read_codebook(fh)
    perms = dict(crypto.keygen(cb, seed=0).perms)
    perms["e"] = tuple(range(cb.capacity("e") + 1))
    _write_key(long_key, crypto.PermutationKey("long", perms))
    doc = tmp_path / "doc.txt"
    args = [
        "embed",
        "--codebook", str(workspace / "codebook.txt"),
        "--text", str(workspace / "text.txt"),
        "--message", str(workspace / "message.txt"),
        "--key", str(long_key),
        "--output", str(doc),
    ]
    assert main(args) == EXIT_KEY
    assert not doc.exists()


def test_undecodable_files_exit_without_a_traceback(workspace, tmp_path):
    """Bytes that are not UTF-8 make a format file a format error (exit 6)
    and a cover text a usage error (exit 2)."""
    garbled = tmp_path / "garbled.txt"
    garbled.write_bytes(b"\xff\xfe# glyphcode codebook\n")
    args = ["capacity", "--codebook", str(garbled), "--text", str(workspace / "text.txt")]
    assert main(args) == EXIT_FORMAT
    args = ["capacity", "--codebook", str(workspace / "codebook.txt"), "--text", str(garbled)]
    assert main(args) == EXIT_USAGE


def test_capacity_refuses_negative_sample_blocks(workspace):
    cb = fixtures.channel_codebook()
    with pytest.raises(ContractViolation, match="sample_blocks"):
        pipeline.capacity_report(
            cb, frequencies=fixtures.ENGLISH_FREQUENCIES, sample_blocks=-1
        )
    args = ["capacity", "--codebook", str(workspace / "codebook.txt"), "--sample-blocks", "-1"]
    assert main(args) == EXIT_USAGE


def test_codebook_build_refuses_zero_candidates(tmp_path):
    out = tmp_path / "cb.txt"
    args = ["codebook-build", "--mode", "construct", "--candidates", "0", "--output", str(out)]
    assert main(args) == EXIT_USAGE
    assert not out.exists()
