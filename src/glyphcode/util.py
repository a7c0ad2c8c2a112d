"""Small shared helpers: stable seeding, the byte-to-bit-string conversion
and the check that an argument is an integer."""

import hashlib
import operator

from .errors import ContractViolation

__all__ = ["stable_seed", "bits_from_bytes", "as_integer"]


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed deterministically from arbitrary hashable parts.

    Independent of PYTHONHASHSEED; the same parts always give the same seed,
    so parallel trials can use per-trial derived seeds reproducibly.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def bits_from_bytes(data: bytes) -> str:
    """Big-endian bit string for a byte payload, 8 bits per byte."""
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""



def as_integer(value, name: str) -> int:
    """``value`` as an int when it is a Python or numpy integer and not a
    bool; anything else raises ContractViolation naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ContractViolation(f"{name} must be an integer, not {type(value).__name__}")
