"""Small shared helpers: stable seeding and the check that an argument is
an integer."""

import hashlib
import operator

from .errors import ContractViolation

__all__ = ["stable_seed", "as_integer"]


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed deterministically from arbitrary hashable parts.

    Independent of PYTHONHASHSEED; the same parts always give the same seed,
    so parallel trials can use per-trial derived seeds reproducibly.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def as_integer(value, name: str) -> int:
    """``value`` as an int when it is a Python or numpy integer and not a
    bool; anything else raises ContractViolation naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ContractViolation(f"{name} must be an integer, not {type(value).__name__}")
