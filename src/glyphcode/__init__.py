"""glyphcode: steganographic text codec with Chinese Remainder error correction.

Messages are embedded into a document by choosing, for each letter, one of
several perceptually similar perturbed glyphs; blocks of letters jointly carry
an integer encoded as residues against pairwise-coprime moduli, so recognition
errors are correctable.  Permutation keys scramble the integer-to-glyph
mapping, and segment-level signatures localize tampering.
"""

__version__ = "0.1.0"  # the one version literal; formats and pyproject.toml read it

from .channel import ChannelParams, RecognitionResult, recognize_vector, simulate_recognition
from .codebook import (
    CharacterEntry,
    Codebook,
    ConfusionGraph,
    GlyphCandidate,
    ManifoldPoint,
    PerturbedGlyphEntry,
    build_codebook,
    max_clique,
)
from .crc import (
    DecodeOutcome,
    ModuliSet,
    crt_reconstruct,
    encode_phi,
    hamming_decode,
    min_distance,
    ml_decode,
)
from .crypto import (
    PermutationKey,
    SignatureConfig,
    ToyRsaProvider,
    VerificationReport,
    identity_key,
    key_space_bits,
    keygen,
    sign_scheme1,
    sign_scheme2,
    verify,
)
from .errors import GlyphcodeError
from .outline import GlyphOutline, outline_distance, resample_outline
from .perceptual import Response, SimilarityScores, fit, select_candidates
from .pipeline import (
    DecodeReport,
    EncodedDocument,
    capacity_report,
    choose_moduli,
    embed,
    extract,
    partition_blocks,
)

__all__ = [
    "ChannelParams",
    "RecognitionResult",
    "recognize_vector",
    "simulate_recognition",
    "CharacterEntry",
    "Codebook",
    "ConfusionGraph",
    "GlyphCandidate",
    "ManifoldPoint",
    "PerturbedGlyphEntry",
    "build_codebook",
    "max_clique",
    "DecodeOutcome",
    "DecodeReport",
    "ModuliSet",
    "crt_reconstruct",
    "encode_phi",
    "hamming_decode",
    "min_distance",
    "ml_decode",
    "PermutationKey",
    "SignatureConfig",
    "ToyRsaProvider",
    "VerificationReport",
    "identity_key",
    "key_space_bits",
    "keygen",
    "sign_scheme1",
    "sign_scheme2",
    "verify",
    "GlyphcodeError",
    "GlyphOutline",
    "outline_distance",
    "resample_outline",
    "Response",
    "SimilarityScores",
    "fit",
    "select_candidates",
    "EncodedDocument",
    "capacity_report",
    "choose_moduli",
    "embed",
    "extract",
    "partition_blocks",
    "__version__",
]
