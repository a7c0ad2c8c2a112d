import json

import pytest

from glyphcode import fixtures, formats
from glyphcode.cli import (
    EXIT_CAPACITY,
    EXIT_DECODE,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


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
