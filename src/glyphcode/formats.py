"""Line-oriented text formats for codebooks, keys, documents and traces.

Every file starts with a header line ``# glyphcode <version> <kind> <config>``
recording the tool version and the writer's resolved configuration.  Outline
coordinates are serialized as 6-decimal fixed point, so a write -> read ->
write cycle reproduces the file byte for byte.  Trace likelihoods, similarity
scores and rater reliabilities are written as ``repr`` of the float, so they
read back exactly.  Every reader raises FormatError, and nothing else, on an
empty, truncated or malformed file.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .codebook import (
    CharacterEntry,
    Codebook,
    ManifoldPoint,
    PerturbedGlyphEntry,
)
from .crypto import PermutationKey
from .errors import ContractViolation, FormatError, GlyphcodeError
from .outline import GlyphOutline
from .perceptual import RaterReliabilities, Response, SimilarityScores
from .pipeline import EncodedDocument

__all__ = [
    "TOOL_VERSION",
    "write_codebook",
    "read_codebook",
    "write_key",
    "read_key",
    "write_document",
    "read_document",
    "write_trace",
    "read_trace",
    "write_responses",
    "read_responses",
    "write_scores",
    "read_scores",
    "write_message_bits",
    "read_message_bits",
]

TOOL_VERSION = __version__


# what parsing raises on truncated or mutated input; model classes reject
# out-of-range values with ContractViolation, a GlyphcodeError
_MALFORMED = (ValueError, IndexError, KeyError, TypeError, OverflowError, GlyphcodeError)


def _reader(kind: str):
    """Turn a parser of a ``kind`` file's body lines into ``read_*(fh)``.

    The reader checks the header line and raises FormatError, and only
    FormatError, on any malformed input: bytes the stream cannot decode,
    missing fields, bad numbers, or values the model classes reject.
    """

    def decorate(parse):
        def read(fh: TextIO):
            try:
                lines = fh.read().splitlines()
                if not lines:
                    raise FormatError(f"empty {kind} file")
                _check_header(lines[0], kind)
                return parse(lines[1:])
            except FormatError:
                raise
            except _MALFORMED as exc:
                raise FormatError(f"bad {kind} file: {exc!r}") from exc

        read.__name__ = read.__qualname__ = parse.__name__
        read.__doc__ = parse.__doc__
        return read

    return decorate


def _header(kind: str, config: str = "") -> str:
    tail = f" {config}" if config else ""
    return f"# glyphcode {TOOL_VERSION} {kind}{tail}\n"


def _check_header(line: str, kind: str) -> None:
    parts = line.rstrip("\n").split()
    if len(parts) < 4 or parts[:2] != ["#", "glyphcode"] or parts[3] != kind:
        raise FormatError(f"not a glyphcode {kind} file: {line!r}")


def _field(line: str, label: str) -> str:
    """What follows ``label`` on a ``label value`` record."""
    parts = line.split(None, 1)
    if not parts or parts[0] != label:
        raise FormatError(f"expected a {label} record, got {line[:40]!r}")
    return parts[1] if len(parts) > 1 else ""


def _no_more(lines: list[str], kind: str) -> None:
    """Refuse a record after the last one a ``kind`` file holds."""
    for line in lines:
        if line.strip():
            raise FormatError(f"record past the end of a {kind} file: {line[:40]!r}")


def _string(token: str) -> str:
    value = json.loads(token)
    if not isinstance(value, str):
        raise FormatError(f"expected a JSON string, got {token!r}")
    return value


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_codebook(cb: Codebook, fh: TextIO, config: str = "") -> None:
    fh.write(_header("codebook", config))
    fh.write(f"font_id {json.dumps(cb.font_id)}\n")
    fh.write(f"version {json.dumps(cb.version)}\n")
    fh.write(f"resample_count {cb.resample_count}\n")
    for ch in cb.characters():
        entry = cb.entries[ch]
        fh.write(f"character {json.dumps(ch)} glyphs {entry.capacity}\n")
        for tag, g in [("original", entry.original)] + [
            ("glyph", g) for g in entry.glyphs
        ]:
            coords = " ".join(_fmt(v) for v in g.outline.vertices.ravel())
            fh.write(
                f"{tag} {g.index} point {_fmt(g.point.x)} {_fmt(g.point.y)} "
                f"accuracy {_fmt(g.accuracy)} outline {coords}\n"
            )


def _parse_glyph(parts: list[str], tag: str) -> PerturbedGlyphEntry:
    if parts[0] != tag or parts[2] != "point" or parts[5] != "accuracy" or parts[7] != "outline":
        raise FormatError(f"bad glyph record: {' '.join(parts[:8])!r}")
    point = ManifoldPoint(float(parts[3]), float(parts[4]))
    coords = np.array([float(t) for t in parts[8:]]).reshape(-1, 2)
    return PerturbedGlyphEntry(int(parts[1]), point, GlyphOutline(coords), float(parts[6]))


@_reader("codebook")
def read_codebook(lines: list[str]) -> Codebook:
    font_id = _string(_field(lines[0], "font_id"))
    version = _string(_field(lines[1], "version"))
    resample_count = int(_field(lines[2], "resample_count"))
    entries: dict[str, CharacterEntry] = {}
    i = 3
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        if parts[0] != "character" or parts[2] != "glyphs":
            raise FormatError(f"expected character record at line {i + 2}")
        ch = _string(parts[1])
        if ch in entries:
            raise FormatError(f"second character record for {ch!r}")
        count = int(parts[3])
        original = _parse_glyph(lines[i + 1].split(), "original")
        glyphs = tuple(
            _parse_glyph(lines[i + 2 + j].split(), "glyph") for j in range(count)
        )
        # recognition stacks a letter's outlines, so they must share one count
        for g in (original, *glyphs):
            if g.outline.vertex_count != resample_count:
                raise FormatError(
                    f"character {ch!r} has a {g.outline.vertex_count}-vertex outline, "
                    f"but resample_count is {resample_count}"
                )
        entries[ch] = CharacterEntry(ch, original, glyphs)
        i += 2 + count
    return Codebook(font_id, entries, version, resample_count)


def write_key(key: PermutationKey, fh: TextIO, config: str = "") -> None:
    fh.write(_header("key", config))
    fh.write(f"key_id {json.dumps(key.key_id)}\n")
    for ch in sorted(key.perms):
        perm = " ".join(str(v) for v in key.perms[ch])
        fh.write(f"character {json.dumps(ch)} perm {perm}\n")


@_reader("key")
def read_key(lines: list[str]) -> PermutationKey:
    key_id = _string(_field(lines[0], "key_id"))
    perms = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] != "character" or parts[2] != "perm":
            raise FormatError(f"bad key record: {line!r}")
        ch = _string(parts[1])
        if ch in perms:
            raise FormatError(f"second perm record for {ch!r}")
        perms[ch] = tuple(int(v) for v in parts[3:])
    return PermutationKey(key_id, perms)


def write_document(doc: EncodedDocument, fh: TextIO, config: str = "") -> None:
    fh.write(_header("document", config))
    fh.write(f"codebook_id {json.dumps(doc.codebook_id)}\n")
    fh.write(f"text {json.dumps(doc.text)}\n")
    fh.write("indices " + " ".join([str(v) for v in doc.glyph_indices]) + "\n")


def _refuse(token: str):
    raise ValueError(f"not an integer: {token!r}")


# reads a JSON array of integers in C; a float or a constant is refused
_INTEGER_ARRAY = json.JSONDecoder(parse_float=_refuse, parse_constant=_refuse)


def _indices(field: str) -> tuple[int, ...]:
    """The integers of an ``indices`` record.  A record of ASCII digits,
    '-' and spaces is read as one JSON array in C; any other record, and
    one the decoder refuses, is read token by token with ``int``, which
    decides what the record holds."""
    if field.isascii() and not field.encode("ascii").translate(None, b"0123456789- "):
        try:
            return tuple(_INTEGER_ARRAY.decode(f"[{field.replace(' ', ',')}]"))
        except ValueError:
            pass
    return tuple(map(int, field.split()))


@_reader("document")
def read_document(lines: list[str]) -> EncodedDocument:
    codebook_id = _string(_field(lines[0], "codebook_id"))
    text = _string(_field(lines[1], "text"))
    indices = _indices(_field(lines[2], "indices"))
    _no_more(lines[3:], "document")
    return EncodedDocument(text, indices, codebook_id)


def write_trace(rows: Sequence[np.ndarray], fh: TextIO, config: str = "") -> None:
    """Channel trace: one line per coded letter with argmax and probabilities.

    Raises ContractViolation, before writing anything, on a non-finite
    likelihood, which :func:`read_trace` would refuse."""
    rows = [np.asarray(row, dtype=float) for row in rows]
    for i, row in enumerate(rows):
        if not np.isfinite(row).all():
            raise ContractViolation(f"trace row {i} holds a non-finite likelihood")
    fh.write(_header("trace", config))
    for row in rows:
        fh.write(
            f"{int(np.argmax(row))} " + " ".join(repr(float(v)) for v in row) + "\n"
        )


@_reader("trace")
def read_trace(lines: list[str]) -> list[np.ndarray]:
    rows = []
    for i, parts in enumerate(line.split() for line in lines if line.strip()):
        row = np.array([float(v) for v in parts[1:]])
        if not np.isfinite(row).all():  # float() reads nan and inf
            raise FormatError(f"trace row {i} holds a non-finite likelihood")
        if not len(row) or int(parts[0]) != np.argmax(row):
            raise FormatError(f"trace row {i} does not lead with its likelihoods' argmax")
        rows.append(row)
    return rows


def write_responses(responses: Sequence[Response], fh: TextIO, config: str = "") -> None:
    fh.write(_header("responses", config))
    for r in responses:
        fh.write(json.dumps([str(r.glyph_i), str(r.glyph_j), str(r.rater), r.q]) + "\n")


@_reader("responses")
def read_responses(lines: list[str]) -> list[Response]:
    out = []
    for line in lines:
        if line.strip():
            gi, gj, rater, q = json.loads(line)
            out.append(Response(gi, gj, rater, int(q)))
    return out


def write_scores(
    scores: SimilarityScores,
    fh: TextIO,
    reliabilities: Optional[RaterReliabilities] = None,
    config: str = "",
) -> None:
    fh.write(_header("scores", config))
    for g in sorted(scores.s, key=repr):
        fh.write(f"score {json.dumps(str(g))} {float(scores.s[g])!r}\n")
    if reliabilities is not None:
        for u in sorted(reliabilities.r, key=repr):
            fh.write(f"reliability {json.dumps(str(u))} {float(reliabilities.r[u])!r}\n")


@_reader("scores")
def read_scores(lines: list[str]) -> tuple[SimilarityScores, RaterReliabilities]:
    tables: dict[str, dict] = {"score": {}, "reliability": {}}
    for line in lines:
        if line.strip():
            kind, name, value = line.split()
            table, name, value = tables[kind], json.loads(name), float(value)
            if name in table:
                raise FormatError(f"second {kind} record for {name!r}")
            if not np.isfinite(value):  # float() reads nan and inf
                raise FormatError(f"{kind} of {name!r} is not finite")
            table[name] = value
    return SimilarityScores(tables["score"]), RaterReliabilities(tables["reliability"])


def write_message_bits(bits: str, fh: TextIO, config: str = "") -> None:
    fh.write(_header("message", config))
    fh.write(bits + "\n")


@_reader("message")
def read_message_bits(lines: list[str]) -> str:
    bits = lines[0].strip() if lines else ""
    if any(b not in "01" for b in bits):
        raise FormatError("message payload must be a bit string")
    _no_more(lines[1:], "message")
    return bits
