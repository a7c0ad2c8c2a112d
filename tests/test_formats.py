import io
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glyphcode import fixtures, formats, pipeline
from glyphcode.crypto import keygen
from glyphcode.errors import ContractViolation, FormatError
from glyphcode.perceptual import RaterReliabilities, Response, SimilarityScores


@pytest.fixture(scope="module")
def codebook():
    return fixtures.fixture_codebook({"a": 3, "b": 2}, seed=1)


def _round_trip(write, read, obj, **kwargs):
    buf = io.StringIO()
    write(obj, buf, **kwargs)
    buf.seek(0)
    return buf.getvalue(), read(buf)


def test_codebook_write_read_write_identical(codebook):
    first, loaded = _round_trip(
        formats.write_codebook, formats.read_codebook, codebook, config="seed=1"
    )
    buf = io.StringIO()
    formats.write_codebook(loaded, buf, config="seed=1")
    assert buf.getvalue() == first
    assert loaded.font_id == codebook.font_id
    assert loaded.characters() == codebook.characters()
    for ch in codebook.characters():
        a, b = codebook.entries[ch], loaded.entries[ch]
        assert a.capacity == b.capacity
        for ga, gb in zip(a.glyphs, b.glyphs):
            assert np.allclose(ga.outline.vertices, gb.outline.vertices, atol=1e-6)


def test_key_round_trip(codebook):
    key = keygen(codebook, seed=9)
    _, loaded = _round_trip(formats.write_key, formats.read_key, key)
    assert loaded.key_id == key.key_id
    assert loaded.perms == key.perms


def test_document_round_trip(codebook):
    doc = pipeline.EncodedDocument('ab "a\nb', (1, 0, 2), "cb-1")
    _, loaded = _round_trip(formats.write_document, formats.read_document, doc)
    assert loaded == doc


def test_trace_round_trip():
    rows = [np.array([0.25, 0.75]), np.array([0.1, 0.2, 0.7])]
    _, loaded = _round_trip(formats.write_trace, formats.read_trace, rows)
    assert len(loaded) == 2
    for a, b in zip(rows, loaded):
        assert np.array_equal(a, b)  # repr round trip is exact


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_trace_refuses_non_finite_values(token):
    """A likelihood that is not a finite number is a malformed trace: reading
    it raises FormatError (it used to give NaN and inf rows), and writing one
    is refused."""
    buf = io.StringIO()
    formats.write_trace([np.array([0.25, 0.75]), np.array([0.1, 0.2, 0.7])], buf)
    lines = buf.getvalue().splitlines()
    lines[2] = lines[2].replace("0.2", token)
    with pytest.raises(FormatError, match="trace row 1"):
        formats.read_trace(io.StringIO("\n".join(lines) + "\n"))
    out = io.StringIO()
    with pytest.raises(ContractViolation, match="trace row 1"):
        formats.write_trace([np.array([0.5, 0.5]), np.array([0.5, float(token)])], out)
    assert out.getvalue() == ""


def test_responses_round_trip():
    responses = [Response("g one", "g2", "rater x", 1), Response("a", "b", "u", 0)]
    _, loaded = _round_trip(formats.write_responses, formats.read_responses, responses)
    assert loaded == responses


def test_scores_round_trip():
    scores = SimilarityScores({"a": 0.125, "b": 1.0})
    rels = RaterReliabilities({"u": -3.5})
    buf = io.StringIO()
    formats.write_scores(scores, buf, rels)
    buf.seek(0)
    s, r = formats.read_scores(buf)
    assert s.s == {"a": 0.125, "b": 1.0}
    assert r.r == {"u": -3.5}


def test_message_round_trip():
    for bits in ("", "0", "10110"):
        _, loaded = _round_trip(formats.write_message_bits, formats.read_message_bits, bits)
        assert loaded == bits


def test_format_errors():
    readers = [
        formats.read_codebook,
        formats.read_key,
        formats.read_document,
        formats.read_trace,
        formats.read_responses,
        formats.read_scores,
        formats.read_message_bits,
    ]
    for read in readers:
        with pytest.raises(FormatError):
            read(io.StringIO(""))
        with pytest.raises(FormatError):
            read(io.StringIO("garbage line\nmore garbage\n"))
        # bytes that do not decode fail inside the guarded parse
        undecodable = io.BytesIO(b"\xff\xfe# glyphcode codebook\n")
        with pytest.raises(FormatError, match="UnicodeDecodeError"):
            read(io.TextIOWrapper(undecodable, encoding="utf-8"))
    # wrong kind header
    buf = io.StringIO()
    formats.write_message_bits("101", buf)
    buf.seek(0)
    with pytest.raises(FormatError):
        formats.read_key(buf)
    with pytest.raises(FormatError):
        formats.read_message_bits(
            io.StringIO(f"# glyphcode {formats.TOOL_VERSION} message\nnot-bits\n")
        )


def _sample_files():
    """One well-formed file per reader, as text."""
    cb = fixtures.fixture_codebook({"a": 3, "b": 2}, vertex_count=6, seed=1)
    writes = {
        "codebook": (formats.write_codebook, cb),
        "key": (formats.write_key, keygen(cb, seed=9)),
        "document": (
            formats.write_document,
            pipeline.EncodedDocument('ab "a\nb', (1, 0, 2), "cb-1"),
        ),
        "trace": (formats.write_trace, [np.array([0.25, 0.75]), np.array([0.1, 0.9])]),
        "responses": (
            formats.write_responses,
            [Response("g1", "g2", "u", 1), Response("g2", "g3", "v", 0)],
        ),
        "scores": (formats.write_scores, SimilarityScores({"a": 0.5, "b": 1.0})),
        "message_bits": (formats.write_message_bits, "10110"),
    }
    out = {}
    for name, (write, obj) in writes.items():
        buf = io.StringIO()
        write(obj, buf)
        out[name] = buf.getvalue()
    return out


SAMPLE_FILES = _sample_files()
BAD_TOKENS = [
    "", "x", "-1", "0", "1", "2", "7", "99999", "1e999", "nan", "-inf", "0.5",
    '"', '"a"', "[]", "{}", "null", "true", "[1,2]", '["a","a","u",1]',
    "character", "glyph", "original", "point", "perm", "score", "#",
]


@st.composite
def _damaged_file(draw):
    """A sample file after one to three truncations or token/line edits."""
    name = draw(st.sampled_from(sorted(SAMPLE_FILES)))
    lines = SAMPLE_FILES[name].split("\n")
    for _ in range(draw(st.integers(1, 3))):
        lines = lines or [""]
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["truncate", "token", "drop_token", "drop_line"]))
        if kind == "truncate":
            text = "\n".join(lines)
            lines = text[: draw(st.integers(0, len(text)))].split("\n")
        elif kind == "drop_line":
            del lines[at]
        else:
            tokens = lines[at].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            if kind == "token":
                tokens[j] = draw(st.sampled_from(BAD_TOKENS))
            else:
                del tokens[j]
            lines[at] = " ".join(tokens)
    return name, "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(case=_damaged_file())
def test_readers_raise_only_format_error(case):
    name, text = case
    read = getattr(formats, f"read_{name}")
    try:
        read(io.StringIO(text))
    except FormatError:
        pass


def _relabelled(name, label, new):
    """A sample file whose first ``label`` record is labelled ``new``."""
    lines = SAMPLE_FILES[name].split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(label + " "))
    lines[i] = new + lines[i][len(label) :]
    return "\n".join(lines)


def _with_line(name, line):
    return SAMPLE_FILES[name] + line + "\n"


def _repeated(name, prefix):
    """A sample file with a second copy of the record whose first line starts
    ``prefix``, its lines up to the next record of that label, at the end."""
    lines = SAMPLE_FILES[name].splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    label = prefix.split()[0] + " "
    j = next((j for j in range(i + 1, len(lines)) if lines[j].startswith(label)), len(lines))
    return "\n".join(lines + lines[i:j]) + "\n"


@pytest.mark.parametrize(
    "name, text",
    [
        pytest.param("document", _relabelled("document", "codebook_id", "foo"), id="codebook-id"),
        pytest.param("document", _relabelled("document", "text", "bar"), id="text"),
        pytest.param("document", _relabelled("document", "indices", "baz"), id="indices"),
        pytest.param(
            "document",
            _with_line("document", SAMPLE_FILES["document"].splitlines()[-1]),
            id="second-indices",
        ),
        pytest.param("codebook", _relabelled("codebook", "font_id", "foo"), id="font-id"),
        pytest.param("codebook", _relabelled("codebook", "version", "foo"), id="version"),
        pytest.param(
            "codebook", _relabelled("codebook", "resample_count", "foo"), id="resample-count"
        ),
        pytest.param("codebook", _relabelled("codebook", "original", "glyph"), id="glyph-tag"),
        pytest.param("key", _relabelled("key", "key_id", "foo"), id="key-id"),
        pytest.param("message_bits", _with_line("message_bits", "not bits"), id="second-bits"),
        pytest.param("trace", _with_line("trace", "0"), id="empty-row"),
        pytest.param("trace", _with_line("trace", "0 0.25 0.75"), id="wrong-argmax"),
        pytest.param("codebook", _repeated("codebook", 'character "a"'), id="second-character"),
        # another permutation of "a"'s three glyphs, which the last record would set
        pytest.param("key", _with_line("key", 'character "a" perm 0 1 2'), id="second-perm"),
        pytest.param("scores", _with_line("scores", 'score "a" 0.25'), id="second-score"),
        pytest.param("scores", _with_line("scores", 'score "c" nan'), id="nan-score"),
        pytest.param("scores", _with_line("scores", 'score "c" inf'), id="inf-score"),
    ],
)
def test_readers_check_labels_and_refuse_extra_records(name, text):
    """A record under another label, a record after the last one a file
    holds, a second record for one character or name, a non-finite score
    and a trace row that is not its argmax and likelihoods are malformed."""
    assert text != SAMPLE_FILES[name]
    with pytest.raises(FormatError):
        getattr(formats, f"read_{name}")(io.StringIO(text))


def test_malformed_fields_raise_format_error():
    lines = SAMPLE_FILES["codebook"].split("\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("character"))
    bad_count = lines[:]
    bad_count[header] = bad_count[header].rsplit(" ", 1)[0] + " x"
    for text in ("\n".join(lines[: header + 2]), "\n".join(bad_count)):
        with pytest.raises(FormatError):
            formats.read_codebook(io.StringIO(text))
    key = SAMPLE_FILES["key"].replace("perm 0 ", "perm 1 ", 1)
    assert key != SAMPLE_FILES["key"]
    with pytest.raises(FormatError):
        formats.read_key(io.StringIO(key))
    # a non-string text would only fail later, inside extract
    doc = "\n".join(
        "text 5" if line.startswith("text ") else line
        for line in SAMPLE_FILES["document"].split("\n")
    )
    with pytest.raises(FormatError):
        formats.read_document(io.StringIO(doc))


@pytest.mark.parametrize("token", ["x", "1.5", "1e3", "0x1f", "nan", "--1", "1,2", '"1"'])
def test_document_index_that_is_not_an_integer_is_a_format_error(token):
    """Every index token must parse as an integer; a written document reads
    back as it was."""
    text = SAMPLE_FILES["document"]
    assert text.endswith("indices 1 0 2\n")
    assert formats.read_document(io.StringIO(text)).glyph_indices == (1, 0, 2)
    with pytest.raises(FormatError, match="ValueError"):
        formats.read_document(io.StringIO(text.replace("indices 1 0 2", f"indices 1 {token} 2")))


# index tokens that int() and a JSON array read differently, or that only
# one of them reads: signs, leading zeros, underscores, JSON syntax and
# constants, exponents, full-width digits and integers past int()'s
# 4300-digit limit
INDEX_TOKENS = st.integers(-(10**30), 10**30).map(str) | st.sampled_from(
    ["+1", "007", "-0", "1_0", "1,2", "[1]", "NaN", "Infinity", "1e3", "1.0", "\uff11\uff12",
     "-", "--1", "true", "null", "1" * 4301, "-" + "9" * 4301]
)
INDEX_GAPS = st.sampled_from([" ", " ", "  ", "\t", " \t", "\u3000", ""])


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.tuples(INDEX_GAPS, INDEX_TOKENS), max_size=6), tail=INDEX_GAPS)
def test_document_indices_read_as_int_reads_each_token(tokens, tail):
    """An indices record reads as tuple(map(int, record.split())) does, or
    raises FormatError where that raises ValueError."""
    field = "".join(gap + token for gap, token in tokens) + tail
    try:
        want = tuple(map(int, field.split()))
    except ValueError:
        want = FormatError
    text = SAMPLE_FILES["document"].replace("indices 1 0 2", "indices " + field)
    try:
        got = formats.read_document(io.StringIO(text)).glyph_indices
    except FormatError:
        got = FormatError
    assert got == want


def test_one_version_string():
    import glyphcode
    from setuptools.config import pyprojecttoml

    root = Path(__file__).resolve().parents[1]
    with warnings.catch_warnings():
        # setuptools releases that still call [tool.setuptools] beta say so
        # on every read
        beta = getattr(pyprojecttoml, "_BetaConfiguration", None)
        if beta is not None:
            warnings.simplefilter("ignore", beta)
        config = pyprojecttoml.read_configuration(root / "pyproject.toml")
    assert formats.TOOL_VERSION == glyphcode.__version__
    assert config["project"]["version"] == glyphcode.__version__
    buf = io.StringIO()
    formats.write_message_bits("1", buf)
    assert buf.getvalue().startswith(f"# glyphcode {glyphcode.__version__} message")
