"""Small shared helpers: stable seeding and the byte-to-bit-string conversion."""

import hashlib

__all__ = ["stable_seed", "bits_from_bytes"]


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed deterministically from arbitrary hashable parts.

    Independent of PYTHONHASHSEED; the same parts always give the same seed,
    so parallel trials can use per-trial derived seeds reproducibly.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def bits_from_bytes(data: bytes) -> str:
    """Big-endian bit string for a byte payload."""
    return "".join(f"{b:08b}" for b in data)

