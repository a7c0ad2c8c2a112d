"""Pinned outputs that are a compatibility contract.

Signed documents, verification reports, keyed embeddings and the capacity
estimate are pinned here byte for byte: the block layout is recomputed from
the text on extraction, so any change to these values breaks documents that
were written before it.  Each document is pinned by the SHA-256 of its
``formats.write_document`` output, or by the exception type when signing
refuses the input.

The channel is pinned the same way: the error-injection vectors and
likelihood tables of criterion 4, the noisy documents and traces that
``glyphcode simulate`` writes, a constructed codebook and the output of the
embed/extract demo.  Same seeds must give the same files.

Offline font preparation is pinned too: the exact perceptual fits of the
criterion-10 responses and of two font-preparation response sets, and the
per-glyph oracle accuracies of a few glyph subsets.
"""

import contextlib
import functools
import hashlib
import io
import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from glyphcode import channel, cli, fixtures, formats, perceptual, pipeline
from glyphcode.crc import encode_phi
from glyphcode.crypto import (
    EncodedDocument,
    SignatureConfig,
    ToyRsaProvider,
    keygen,
    segment_text,
    sign_scheme1,
    sign_scheme2,
    verify,
)
from glyphcode.errors import GlyphcodeError


@functools.lru_cache(maxsize=None)
def _codebook(name):
    if name == "uniform11":
        return fixtures.signature_codebook()
    return fixtures.channel_codebook()


def _doc_digest(doc):
    buf = io.StringIO()
    formats.write_document(doc, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _pinned(make):
    try:
        return _doc_digest(make())
    except GlyphcodeError as exc:
        return type(exc).__name__


def _signed(cb_name, letters, seed, seg_min, scheme):
    cb = _codebook(cb_name)
    text = fixtures.random_text(letters, seed=seed)
    if scheme == 1:
        config = SignatureConfig(segment_min_letters=seg_min)
        return _pinned(lambda: sign_scheme1(text, cb, keygen(cb, seed=seed), config))
    config = SignatureConfig(segment_min_letters=seg_min)
    signer = ToyRsaProvider.generate(seed=seed % 3)
    return _pinned(lambda: sign_scheme2(text, cb, signer, config))


# (codebook, letters, text seed, segment_min_letters, scheme): digest
SIGNED = {('lowercase', 60, 43, 40, 1): 'SigningError',
 ('lowercase', 60, 43, 40, 2): 'cdc6fe60db8b5bc1bf13751f71a8c0a9f1dd4a4f02548ac0ecc78d0dad1b0b59',
 ('lowercase', 60, 43, 80, 1): 'SigningError',
 ('lowercase', 60, 43, 80, 2): 'SigningError',
 ('lowercase', 60, 43, 150, 1): 'SigningError',
 ('lowercase', 60, 43, 150, 2): 'SigningError',
 ('lowercase', 176, 40, 40, 1): 'e3635d92957e4a0956d186e4461c71ca08ba3162bf84cdc8a19b1b54353dc0e4',
 ('lowercase', 176, 40, 40, 2): '9f44d54cd28dfc7b2c500765dad40ad065fc7af7cd073ca37b5e8c6001d46bf8',
 ('lowercase', 176, 40, 80, 1): '69fbe2fe39e1f7816ec47080bcfc6a093abadaf3712f15b1c224a569f906dc4e',
 ('lowercase', 176, 40, 80, 2): '286c2bdcb7a60bb47a29d9988c3f48e5b006c393f5e67fc08be637fb43524373',
 ('lowercase', 176, 40, 150, 1): '84f060740ec2b84c1dad3ad552ec0b6c379d3ba8131115f8b8d53453f7455fe3',
 ('lowercase', 176, 40, 150, 2): '16132aabcd5c2b9156c8198fab361e3f9ebc15b4af2354eff2572f901c8823c4',
 ('lowercase', 300, 41, 40, 1): '78b31ec27003103e766d70dbb7e51022c5e9ae67dff1d7ea1f6c14d6fe800459',
 ('lowercase', 300, 41, 40, 2): '0ec26cdda58085e7d25cecfe522784b319a6d9e2a270e1133d47b66a05d7bb92',
 ('lowercase', 300, 41, 80, 1): 'af1975a34f6ebec9fe92ce46752f8a53210530f15d712d864822ffd40749ae30',
 ('lowercase', 300, 41, 80, 2): 'db1d33b108cb765c65a0ef3eb5e7316b12e40934cce830f16099dc575aef03cb',
 ('lowercase', 300, 41, 150, 1): '81a33c3953aa5918d5e473ecabd33dea264be5d08ad751c245fff9595fcfbfe9',
 ('lowercase', 300, 41, 150, 2): 'c147af6cdbe509511ebb80c4bd2d30cc2dd9a79bf70fc346de380c7bfa9c04a0',
 ('lowercase', 520, 42, 40, 1): 'f1be6860d9251c33254437bc1b83e3ac3eecdcf4ddcb6a0550d26ef481f536ef',
 ('lowercase', 520, 42, 40, 2): 'b4c814f3a9086fda53b591849fc5370f3fdc101dfdae2649054899ca02c6ae9b',
 ('lowercase', 520, 42, 80, 1): '8ed40ed5f2762584564483805ee431586970587c7db0906f5840d597e67c82f6',
 ('lowercase', 520, 42, 80, 2): '1878c4db217f013c3bb5f38d0a982397b19209c3be054d9cb70466045c6d6d6e',
 ('lowercase', 520, 42, 150, 1): 'ac6bc5ae8ba5bc34c797ba7160c14dcb196b1b6cd97fbda8c4cbf1dcb2a389b9',
 ('lowercase', 520, 42, 150, 2): '0ff72a73f0d452874525bd460dcb32d8e85d4594b0a9306f8ec36d9c2081094c',
 ('uniform11', 60, 43, 40, 1): 'SigningError',
 ('uniform11', 60, 43, 40, 2): '5d72a44d28dad4b952e120c26be3d923a931ea2c410c005ba189e7aa865cc25b',
 ('uniform11', 60, 43, 80, 1): 'SigningError',
 ('uniform11', 60, 43, 80, 2): 'SigningError',
 ('uniform11', 60, 43, 150, 1): 'SigningError',
 ('uniform11', 60, 43, 150, 2): 'SigningError',
 ('uniform11', 176, 40, 40, 1): '979f1e717a9feb155000bbe8d7ca8c3972cb921b438584c6d5f08727118cf24a',
 ('uniform11', 176, 40, 40, 2): 'e7b71bfad3459e2e90b4f3b3829658c8d48857bb7c5ee8f6048e590523c44fc1',
 ('uniform11', 176, 40, 80, 1): '979f1e717a9feb155000bbe8d7ca8c3972cb921b438584c6d5f08727118cf24a',
 ('uniform11', 176, 40, 80, 2): '4e11832af4e7114e014fb16f343601b9abff246a5960b7f36f1e7e16e25098e7',
 ('uniform11', 176, 40, 150, 1): '5229e808505e198f730e425e04aa66a756dfa7646061db2eb67ad324eaa71f6e',
 ('uniform11', 176, 40, 150, 2): 'f95f98c60e192ac27cc6d1fed16575d1cbc1d38fd9cead73b3c49b9dfe437550',
 ('uniform11', 300, 41, 40, 1): 'b404f261e3465f3a7431847f0f6accb13d8367849be68647df7b2b93d7d98622',
 ('uniform11', 300, 41, 40, 2): '95beb5e878b1f707a494b59f664414766d345759404b8b7ca2bf43ab4c6a6607',
 ('uniform11', 300, 41, 80, 1): 'b404f261e3465f3a7431847f0f6accb13d8367849be68647df7b2b93d7d98622',
 ('uniform11', 300, 41, 80, 2): '59bcb2f0266fb51440a8985f2cc1728b1980e50e908e768a9490c265d02c3102',
 ('uniform11', 300, 41, 150, 1): 'e1ce11cec337723e0c6616032424947ac7bdc24893dd11a590c339dbf687934e',
 ('uniform11', 300, 41, 150, 2): '8d1889ac9a2202fafbdb11edfa9967f7c5b456fbc70db60d5cf43bc2facb0a55',
 ('uniform11', 520, 42, 40, 1): 'e2928164f3694588d1a06083ccc1946c50c2d456e21a469c7b3deca6262abd05',
 ('uniform11', 520, 42, 40, 2): 'aa3d5d8bfb85b68df6efef140689237b7e87ccf87fe4bfecfba8d92dbc384bbf',
 ('uniform11', 520, 42, 80, 1): 'e2928164f3694588d1a06083ccc1946c50c2d456e21a469c7b3deca6262abd05',
 ('uniform11', 520, 42, 80, 2): 'c3bba488b13071e3a427521a89ece1c60d7329c5d482222bb07f3a352ee3edaa',
 ('uniform11', 520, 42, 150, 1): '2b7649789be4329f91dcdfc0df551d41a96479cd8dbf906db40d2bd1b4a4f925',
 ('uniform11', 520, 42, 150, 2): '8d1ed1f366a142959ff2202278034047c63fd961e1ce0111bca76ec95997742d'}

SIGN_CASES = [
    (cb_name, letters, seed, seg_min, scheme)
    for cb_name in ("uniform11", "lowercase")
    for letters, seed in ((60, 43), (176, 40), (300, 41), (520, 42))
    for seg_min in (40, 80, 150)
    for scheme in (1, 2)
]


def test_signed_documents_pinned():
    got = {case: _signed(*case) for case in SIGN_CASES}
    assert got == SIGNED


def _tamper_text(text, cb, seq_index):
    seq = pipeline.letter_sequence(text, cb)
    pos = seq.positions[seq_index]
    alt = next(c for c in cb.characters() if c != text[pos])
    return text[:pos] + alt + text[pos + 1 :]


def _with_index(doc, seq_index, value):
    indices = list(doc.glyph_indices)
    indices[seq_index] = value
    return EncodedDocument(doc.text, tuple(indices), doc.codebook_id)


def _uncoded_index(text, cb, config):
    """A letter that no block carries: skipped by the layout or trailing."""
    seq = pipeline.letter_sequence(text, cb)
    blocks = pipeline.partition_blocks(seq, config.n, config.k)
    carried = {i for b in blocks for i in b.member_indices}
    return next(i for i in range(len(seq.letters)) if i not in carried)


def _verify_reports(cb_name, letters, seed, scheme):
    """Verification of a clean document and three damaged variants."""
    cb = _codebook(cb_name)
    text = fixtures.random_text(letters, seed=seed)
    if scheme == 1:
        config = SignatureConfig()
        key = keygen(cb, seed=seed)
        doc = sign_scheme1(text, cb, key, config)
        payload_bits = config.digest_bits
        check = lambda d, wrong=False: verify(
            d, cb, config, key=keygen(cb, seed=seed + 1) if wrong else key
        )
    else:
        config = SignatureConfig()
        signer = ToyRsaProvider.generate(seed=seed)
        doc = sign_scheme2(text, cb, signer, config)
        other = ToyRsaProvider.generate(seed=seed + 1)
        payload_bits = signer.signature_bits
        check = lambda d, wrong=False: verify(
            d, cb, config, verifier=(other if wrong else signer).public()
        )
    segments = segment_text(text, cb, config, payload_bits=payload_bits)
    target = segments[len(segments) // 2]
    mid = (target.seq_start + target.seq_end) // 2
    seq = pipeline.letter_sequence(text, cb)
    blocks = pipeline.partition_blocks(seq, config.n, config.k)
    member = blocks[target.block_start].member_indices[1]
    out_of_range = seq.capacities[member]
    tampered = EncodedDocument(
        _tamper_text(text, cb, mid), doc.glyph_indices, doc.codebook_id
    )
    uncoded = _uncoded_index(text, cb, config)
    return {
        "clean": check(doc).as_text(),
        "tampered": check(tampered).as_text(),
        "out_of_range": check(_with_index(doc, member, out_of_range)).as_text(),
        "uncoded_out_of_range": check(
            _with_index(doc, uncoded, seq.capacities[uncoded] + 3)
        ).as_text(),
        "wrong_key": check(doc, wrong=True).as_text(),
    }


VERIFY_CASES = [("uniform11", 264, 21, 1), ("uniform11", 264, 21, 2), ("lowercase", 403, 5, 1)]

VERIFY = {('lowercase', 403, 5, 1): {'clean': 'overall: match\n'
                                     'letters [0, 80): match\n'
                                     'letters [80, 160): match\n'
                                     'letters [160, 240): match\n'
                                     'letters [240, 320): match\n'
                                     'letters [320, 403): match',
                            'out_of_range': 'overall: mismatch\n'
                                            'letters [0, 80): match\n'
                                            'letters [80, 160): match\n'
                                            'letters [160, 240): mismatch '
                                            '(extraction-failed)\n'
                                            'letters [240, 320): match\n'
                                            'letters [320, 403): match',
                            'tampered': 'overall: mismatch\n'
                                        'letters [0, 80): match\n'
                                        'letters [80, 160): match\n'
                                        'letters [160, 240): mismatch\n'
                                        'letters [240, 320): match\n'
                                        'letters [320, 403): match',
                            'uncoded_out_of_range': 'overall: match\n'
                                                    'letters [0, 80): match\n'
                                                    'letters [80, 160): match\n'
                                                    'letters [160, 240): match\n'
                                                    'letters [240, 320): match\n'
                                                    'letters [320, 403): match',
                            'wrong_key': 'overall: mismatch\n'
                                         'letters [0, 80): mismatch\n'
                                         'letters [80, 160): mismatch\n'
                                         'letters [160, 240): mismatch\n'
                                         'letters [240, 320): mismatch\n'
                                         'letters [320, 403): mismatch'},
 ('uniform11', 264, 21, 1): {'clean': 'overall: match\n'
                                      'letters [0, 80): match\n'
                                      'letters [80, 160): match\n'
                                      'letters [160, 264): match',
                             'out_of_range': 'overall: mismatch\n'
                                             'letters [0, 80): match\n'
                                             'letters [80, 160): mismatch '
                                             '(extraction-failed)\n'
                                             'letters [160, 264): match',
                             'tampered': 'overall: mismatch\n'
                                         'letters [0, 80): match\n'
                                         'letters [80, 160): mismatch\n'
                                         'letters [160, 264): match',
                             'uncoded_out_of_range': 'overall: match\n'
                                                     'letters [0, 80): match\n'
                                                     'letters [80, 160): match\n'
                                                     'letters [160, 264): match',
                             'wrong_key': 'overall: mismatch\n'
                                          'letters [0, 80): mismatch\n'
                                          'letters [80, 160): mismatch\n'
                                          'letters [160, 264): mismatch'},
 ('uniform11', 264, 21, 2): {'clean': 'overall: match\n'
                                      'letters [0, 80): match\n'
                                      'letters [80, 160): match\n'
                                      'letters [160, 264): match',
                             'out_of_range': 'overall: match\n'
                                             'letters [0, 80): match\n'
                                             'letters [80, 160): match\n'
                                             'letters [160, 264): match',
                             'tampered': 'overall: mismatch\n'
                                         'letters [0, 80): match\n'
                                         'letters [80, 160): mismatch\n'
                                         'letters [160, 264): match',
                             'uncoded_out_of_range': 'overall: match\n'
                                                     'letters [0, 80): match\n'
                                                     'letters [80, 160): match\n'
                                                     'letters [160, 264): match',
                             'wrong_key': 'overall: mismatch\n'
                                          'letters [0, 80): mismatch\n'
                                          'letters [80, 160): mismatch\n'
                                          'letters [160, 264): mismatch'}}


@pytest.mark.parametrize("case", VERIFY_CASES)
def test_verify_reports_pinned(case):
    assert _verify_reports(*case) == VERIFY[case]


def _embedded(letters, seed, keyed):
    """Digest of the embedded document and the decode of a copy in which, past
    the length prefix, two of every six coded letters are shifted to the
    neighbouring glyph."""
    cb = _codebook("lowercase")
    text = fixtures.random_text(letters, seed=seed)
    bits = "".join("01"[(seed * 7 + i * i) % 3 == 0] for i in range(40 * seed + 9))
    key = keygen(cb, seed=seed) if keyed else None
    doc = pipeline.embed(text, cb, bits, key=key)
    recovered, report = pipeline.extract(doc, cb, key=key)
    assert recovered == bits and all(o.status == "exact" for o in report)
    caps = pipeline.letter_sequence(text, cb).capacities
    noisy = tuple(
        (v + 1) % caps[i] if i >= 30 and i % 6 in (1, 2) else v for i, v in enumerate(doc.glyph_indices)
    )
    try:
        recovered, report = pipeline.extract(
            EncodedDocument(text, noisy, doc.codebook_id), cb, key=key
        )
        decoded = (
            hashlib.sha256(recovered.encode()).hexdigest(),
            dict(Counter(o.status for o in report)),
        )
    except GlyphcodeError as exc:
        decoded = type(exc).__name__
    return _doc_digest(doc), len(report), decoded


EMBED_CASES = [(120, 1, False), (120, 1, True), (333, 2, True), (700, 3, True)]

# (letters, seed, keyed): (digest, blocks, (recovered digest, decode paths))
EMBEDDED = {(120, 1, False): ('f23666639077405ecf13aefb06e09d8c67b64a5c3fef7e5dcdd62390aee9745c',
                   24,
                   ('72630da8a49d9a3d14eb729a6941c9abf5f737d7680c37f7de818b521867c2fe',
                    {'corrected': 10, 'corrected-ml': 8, 'exact': 6})),
 (120, 1, True): ('5e35c43071e50cc8b7089d2b85af708dadc47c75809b430ec697f9cf0fae1756',
                  24,
                  ('8b16146b936c32838de8616e418b5705ee532cd41c40c8c1e1d6f224feb553d7',
                   {'corrected': 7, 'corrected-ml': 11, 'exact': 6})),
 (333, 2, True): ('7a4e63095547a442e9abede765bc46a6c7e86c98a4635d8dbe15762cd3accc99',
                  66,
                  ('199586f61b2940bcadec5db22fb3af6a31b71f5a169d7af40ff34b5c7bd3fbfa',
                   {'corrected': 30, 'corrected-ml': 30, 'exact': 6})),
 (700, 3, True): ('0be7bbdd1c463ce481e81638890d2d61703296f85b59355d50ff612c932f07d3',
                  140,
                  ('010d97d4705149ed9da5c0c934a55780a8f8d1e520620c1f16aeef0f5e7cb6b0',
                   {'corrected': 67, 'corrected-ml': 67, 'exact': 6}))}


def test_embedded_documents_pinned():
    got = {case: _embedded(*case) for case in EMBED_CASES}
    assert got == EMBEDDED


CAPACITY = {'criterion_6': {'bits_per_letter': 1.778713490055696,
                 'letters': 500035,
                 'letters_for_128_bits': 72,
                 'total_bits': 889419},
 'sampled_seed_3': {'bits_per_letter': 1.77996,
                    'letters': 25000,
                    'letters_for_128_bits': 72,
                    'total_bits': 44499},
 'text': {'bits_per_letter': 1.7766749379652604,
          'letters': 403,
          'letters_for_128_bits': 73,
          'total_bits': 716}}


def test_capacity_reports_pinned():
    cb = _codebook("lowercase")
    got = {
        "criterion_6": pipeline.capacity_report(
            cb, frequencies=fixtures.ENGLISH_FREQUENCIES, sample_blocks=100_000
        ),
        "sampled_seed_3": pipeline.capacity_report(
            cb, frequencies=fixtures.ENGLISH_FREQUENCIES, sample_blocks=5_000, seed=3
        ),
        "text": pipeline.capacity_report(cb, text=fixtures.random_text(403, seed=5)),
    }
    assert got == CAPACITY


def _criterion_4_injections(trials):
    """SHA-256 of the vectors and of the likelihood tables that the first
    ``trials`` criterion-4 trials draw from ``inject_errors``."""
    entries, moduli = fixtures.redundant_block_entries()
    rng = np.random.default_rng(4)
    vectors, tables = hashlib.sha256(), hashlib.sha256()
    for t in range(trials):
        cw = encode_phi(int(rng.integers(moduli.payload_bound)), moduli)
        vector, table = channel.inject_errors(cw, entries, 2, channel.ChannelParams(seed=1000 * t + 1))
        vectors.update(repr(vector).encode())
        for row in table:
            tables.update(np.asarray(row, dtype=float).tobytes())
    return vectors.hexdigest(), tables.hexdigest()


def test_criterion_4_injections_pinned():
    assert _criterion_4_injections(50) == (
        "755e0454cb161e48573d8875c618cf13abff8374e312199568bac024138c32d5",
        "f42083bad214fb561a3c25169221c50f67f1264e081afa669493988b5bed4466",
    )


def _file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# (errors, blocks): (noisy document digest, trace digest)
SIMULATED = {
    (1, 0): ("694837008f329391ecf686591e83a96def98a9cc6bd921807479efdb11562294",
             "70ff86d0edbf482d3d8030885efcd4e0f802af1feef507c3c684b3653fc80472"),
    (1, 2): ("82a9899d2c6ba8da80fe0d5ed95b25db2d934bac46bce21ee9551cbef73dbaa9",
             "a02e9c1e2d31811d8ea75c64269fa51cb6c580c00f55ece8e7ee1af6b23a7cf2"),
    (2, 0): ("4da95c6b490e9a23b9d030b603ff8110a48cda0f9ac6b5337df628971e4b01da",
             "09b2ad0f879e313cbc4ba34ec25524441fc7b848e357d29391676110b3f2763f"),
    (2, 2): ("f3cec1764ab790ad99bdd532ef3944ad20404f0320bb460085067218e106026a",
             "64d077eb18c152a8a7790b1f3e6b019f2dec5b202ff2b15ffcb5627b7c712095"),
}


@pytest.mark.parametrize("errors,blocks", [(1, 0), (1, 2), (2, 0), (2, 2)])
def test_simulated_documents_pinned(errors, blocks, tmp_path, monkeypatch):
    # relative paths, because the CLI writes its arguments into each header
    monkeypatch.chdir(tmp_path)
    Path("text.txt").write_text(fixtures.random_text(120, seed=42))
    with open("message.txt", "w") as fh:
        formats.write_message_bits("1101001110001011", fh)
    assert cli.main(["codebook-build", "--output", "cb.txt"]) == cli.EXIT_OK
    embed = ["embed", "--codebook", "cb.txt", "--text", "text.txt", "--message", "message.txt"]
    assert cli.main(embed + ["--output", "doc.txt"]) == cli.EXIT_OK
    args = [
        "--seed", "3", "simulate", "--codebook", "cb.txt", "--document", "doc.txt",
        "--errors", str(errors), "--blocks", str(blocks),
        "--output", "noisy.txt", "--trace", "trace.txt",
    ]
    assert cli.main(args) == cli.EXIT_OK
    got = (_file_digest("noisy.txt"), _file_digest("trace.txt"))
    assert got == SIMULATED[(errors, blocks)]


# sigma: digest of the written codebook
CONSTRUCTED = {
    "0.008": "75a1cb0ae977944f9b0a17b05d6d551eec3d11ee48219692f08ae6820eed65ce",
    "0.02": "a9075b62ad4641cefdf32ef04deca8ccce4dbde5900902bb2acf039fcffa0344",
}


@pytest.mark.parametrize("sigma", ["0.008", "0.02"])
def test_constructed_codebooks_pinned(sigma, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = [
        "codebook-build", "--mode", "construct", "--characters", "ab",
        "--candidates", "6", "--sigma", sigma, "--output", "cb.txt",
    ]
    assert cli.main(args) == cli.EXIT_OK
    assert _file_digest("cb.txt") == CONSTRUCTED[sigma]


DEMO_02 = Path(__file__).resolve().parents[1] / "demos" / "02_embed_extract.py"


def test_embed_extract_demo_output_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMO_02), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == "ee5935498d7d0417cec3f41d877303b239e5ef111931c04318912ee8219aaa1a"


def _criterion_10_responses():
    rng = np.random.default_rng(10)
    order = rng.permutation(20)
    planted_s = {f"g{i:02d}": float(order[i] / 19.0) for i in range(20)}
    planted_r = {f"u{i:03d}": float(rng.normal(-8.0, 1.0)) for i in range(200)}
    return perceptual.synth_responses(planted_s, planted_r, questions_per_rater=16, seed=10)


def _chain_responses(seed):
    """A font-preparation response set: 12 chain glyphs, 200 raters near -8."""
    rng = np.random.default_rng(seed)
    offsets = [0.0] + sorted((np.arange(1, 12) * 0.5 + rng.uniform(-0.1, 0.1, 11)).tolist())
    planted_s = {g: 1.0 - o / offsets[-1] for g, o in enumerate(offsets)}
    planted_r = {f"u{u:03d}": float(rng.normal(-8.0, 1.0)) for u in range(200)}
    return perceptual.synth_responses(planted_s, planted_r, 16, int(rng.integers(2**31)))


def _fit_pin(responses, **fit_args):
    """The fit's info dict, and the SHA-256 of the exact repr of its scores,
    reliabilities and info."""
    scores, rels, info = perceptual.fit(responses, **fit_args)
    digest = hashlib.sha256(repr((scores, rels, info)).encode()).hexdigest()
    return info, digest


# name: (info, SHA-256 of repr((scores, reliabilities, info)))
FITS = {
    "criterion_10": ({"iterations": 1472, "objective": 781.076012803923, "disconnected_components": []},
                     "4efa5b905dd290dd21821614c15c55618dfccff66523e05cb2268059d7f15e3b"),
    "chain_14": ({"iterations": 2000, "objective": 706.6091310512293, "disconnected_components": []},
                 "f22f15bce3c873eb35f234a86a30df434578d11b77b3d9c65480ba7150b4de41"),
    "chain_31": ({"iterations": 2000, "objective": 723.0008563388174, "disconnected_components": []},
                 "daf7cf49c69dba9e9650104a0f8b83880b9a7d4ef55f67832d2f25ee0607fe77"),
}


def test_perceptual_fits_pinned():
    got = {
        "criterion_10": _fit_pin(_criterion_10_responses(), max_iterations=5000),
        "chain_14": _fit_pin(_chain_responses(14)),
        "chain_31": _fit_pin(_chain_responses(31)),
    }
    assert got == FITS


def _accuracy_subsets():
    entry = _codebook("lowercase").entry("a")
    outlines = [g.outline for g in entry.glyphs]
    wide = fixtures.chain_outlines("q", 6, vertex_count=256)
    return {
        "all_13": (outlines, channel.ChannelParams()),
        "pair_seed_7": (outlines[3:5], channel.ChannelParams(seed=7, trials=1000)),
        "odd_sigma_04": (outlines[::3], channel.ChannelParams(sigma=0.04, seed=3, trials=37)),
        "wide_256": (wide, channel.ChannelParams(sigma=0.005, seed=9, trials=120)),
        "sigma_0_twin": ([outlines[0], outlines[0], outlines[1]], channel.ChannelParams(sigma=0.0)),
    }


# subset: per_glyph_accuracy(...).tolist()
ACCURACIES = {
    "all_13": [1.0, 0.9333333333333333, 1.0, 0.9333333333333333, 1.0, 1.0, 1.0,
               0.9333333333333333, 1.0, 0.9333333333333333, 1.0, 0.9333333333333333, 1.0],
    "pair_seed_7": [0.998, 0.992],
    "odd_sigma_04": [0.5714285714285714, 0.8571428571428571, 0.7142857142857143,
                     0.8571428571428571, 1.0],
    "wide_256": [0.95, 1.0, 1.0, 1.0, 0.95, 1.0],
    "sigma_0_twin": [1.0, 0.0, 1.0],
}


def test_per_glyph_accuracy_pinned():
    got = {
        name: channel.per_glyph_accuracy(outlines, params).tolist()
        for name, (outlines, params) in _accuracy_subsets().items()
    }
    assert got == ACCURACIES
