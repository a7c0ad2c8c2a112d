"""Exception types shared across the library."""


class GlyphcodeError(Exception):
    """Base class for all library errors."""


class ContractViolation(GlyphcodeError):
    """An operation was called with arguments violating its preconditions."""


class DegenerateGeometryError(GlyphcodeError):
    """An outline has no usable geometry (zero length / zero area)."""


class NonConvergenceError(GlyphcodeError):
    """Codebook construction did not reach a fixed point within the cap."""


class CapacityExceededError(GlyphcodeError):
    """The message does not fit into the document's embedding capacity."""


class DocumentTooSmallError(GlyphcodeError):
    """The document has zero complete coding blocks."""


class CorruptFrameError(GlyphcodeError):
    """The decoded length prefix is inconsistent with the available bits."""


class PartialDecodeError(GlyphcodeError):
    """A block stayed ambiguous after maximum-likelihood resolution."""

    def __init__(self, block_index: int, message: str = ""):
        self.block_index = block_index
        super().__init__(message or f"block {block_index} could not be decoded")


class KeyMismatchError(GlyphcodeError):
    """A permutation key does not cover the codebook it is applied to."""


class SigningError(GlyphcodeError):
    """A signature could not be embedded (capacity shortfall etc.)."""


class FormatError(GlyphcodeError):
    """A file does not parse as the expected glyphcode format."""
