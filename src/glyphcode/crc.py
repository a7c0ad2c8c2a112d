"""Chinese Remainder code: residue encoding, CRT reconstruction, Hamming and
maximum-likelihood decoding.

A payload integer m < M (M = product of the k smallest moduli) is encoded as
its residues against n pairwise-coprime moduli.  The n - k extra residues are
redundancy: the code's minimum Hamming distance is n - k + 1, so Hamming
decoding corrects up to floor((n-k)/2) wrong residues, and a per-glyph
likelihood table resolves ties beyond that bound.

Both decoders search the payloads m < M and nothing else: the range is the
moduli set's own payload bound, never a caller's.  Hamming decoding never
tabulates the M codewords: it lists candidates by CRT on subsets of the
received positions and holds only those candidates.  :func:`_lift` is the
one CRT, for one block or for every block at once.  The module keeps no
cache; each ``ModuliSet`` derives its payload bound and inverses once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ContractViolation
from .util import as_integer

__all__ = [
    "ModuliSet",
    "DecodeOutcome",
    "crt_reconstruct",
    "encode_phi",
    "hamming_distance",
    "hamming_decode",
    "ml_decode",
    "min_distance",
    "block_success_printed",
    "block_success_cumulative",
]


@dataclass(frozen=True, slots=True)
class ModuliSet:
    """Ordered pairwise-coprime moduli with k payload positions.

    ``payload_bound`` (M, the product of the k smallest moduli), Garner's
    ``inverses`` ((p_0 ... p_{j-1})^-1 mod p_j for j = 1 .. n - 1) and
    ``lifts_in_int64`` are derived once, when the set is made, and kept in
    slots.  ``lifts_in_int64`` is P max(p) < 2^62, which keeps
    :func:`_lift` over every position in int64 for residues in range: at
    position j, m0 < step, r_j < p_j and inv < p_j, so |(r_j - m0) inv| <
    max(step, p_j) p_j <= P max(p); the new m0 and step stay below P.
    The moduli and k are Python or numpy integers; a float or a bool is
    refused.
    """

    p: tuple[int, ...]
    k: int
    payload_bound: int = field(init=False, repr=False, compare=False)
    inverses: tuple[int, ...] = field(init=False, repr=False, compare=False)
    lifts_in_int64: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = tuple(as_integer(x, "moduli") for x in self.p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", as_integer(self.k, "k"))
        if any(x < 1 for x in p):
            raise ContractViolation("moduli must be positive")
        if not (1 <= self.k < len(p)):
            raise ContractViolation("need 1 <= k < n")
        for a, b in combinations(p, 2):
            if math.gcd(a, b) != 1:
                raise ContractViolation(f"moduli {a} and {b} are not coprime")
        object.__setattr__(self, "payload_bound", math.prod(sorted(p)[: self.k]))
        inverses, step = [], p[0]
        for pj in p[1:]:
            inverses.append(pow(step, -1, pj))
            step *= pj
        object.__setattr__(self, "inverses", tuple(inverses))
        object.__setattr__(self, "lifts_in_int64", step * max(p) < 1 << 62)

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def total_product(self) -> int:
        return math.prod(self.p)


class DecodeOutcome(NamedTuple):
    """Result of decoding one block's code vector: an immutable, hashable
    record whose repr leaves out the candidates."""

    status: str  # exact | corrected | corrected-ml | ambiguous-fail
    m: Optional[int]
    min_hamming: int
    candidate_count: int
    candidates: tuple[int, ...] = ()

    def __repr__(self) -> str:
        return (
            f"DecodeOutcome(status={self.status!r}, m={self.m!r}, "
            f"min_hamming={self.min_hamming!r}, candidate_count={self.candidate_count!r})"
        )

    def as_text(self) -> str:
        m = "-" if self.m is None else str(self.m)
        return (
            f"status={self.status} m={m} "
            f"min_hamming={self.min_hamming} candidates={self.candidate_count}"
        )


def _lift(r, p, positions: Sequence[int], inverses: Optional[Sequence] = None):
    """Garner's CRT over ``positions``: (m0, step) with step the product of
    their moduli and m0 < step the unique value with m0 mod p_j = r_j there,
    for one block's integers or for int64 columns of every block's.  The
    residues must be in range; no positions give (0, 1).  ``inverses`` are
    the set's own, given only over every position; else ``pow`` finds each."""
    if not positions:
        return 0, 1
    m0, step = r[positions[0]], p[positions[0]]
    for j in positions[1:]:  # lift m0 mod step to mod step * p_j
        pj = p[j]
        inverse = pow(step, -1, pj) if inverses is None else inverses[j - 1]
        m0 = m0 + step * ((r[j] - m0) * inverse % pj)
        step = step * pj
    return m0, step


def crt_reconstruct(r: Sequence[int], moduli: ModuliSet) -> int:
    """Unique m in [0, P) with m mod p_i = r_i, by Garner's lifting with
    the set's own inverses."""
    p = moduli.p
    if len(r) != len(p):
        raise ContractViolation("residue count does not match moduli count")
    for ri, pi in zip(r, p):
        if not (0 <= ri < pi):
            raise ContractViolation(f"residue {ri} out of range for modulus {pi}")
    return _lift(r, p, range(len(p)), moduli.inverses)[0]


def encode_phi(m: int, moduli: ModuliSet) -> tuple[int, ...]:
    """Residues (m mod p_1, ..., m mod p_n) for a payload m < M."""
    M = moduli.payload_bound
    if not (0 <= m < M):
        raise ContractViolation(f"payload {m} outside [0, {M})")
    return tuple([m % pi for pi in moduli.p])


def hamming_distance(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of positions at which two equal-length tuples differ."""
    if len(u) != len(v):
        raise ContractViolation("length mismatch")
    return sum(a != b for a, b in zip(u, v))


def hamming_decode(r: Sequence[int], moduli: ModuliSet) -> DecodeOutcome:
    """Decode a code vector by minimum Hamming distance over the payloads
    m < M, with M the moduli set's payload bound.

    The nearest payloads are found by subset CRT (Goldreich, Ron & Sudan,
    "Chinese Remaindering with Errors"): a payload at distance d agrees with
    the vector on n - d in-range positions, so CRT on every s-subset of
    in-range positions, stepped by the subset's product below M, lists every
    payload within distance n - s.  Subsets start at size k, where each
    yields at most one payload, and shrink only while they yield no
    candidate at all; size 0 lists all of [0, M).  Within the
    unique-decoding radius floor((n-k)/2) the first candidate found is the
    answer, reported exact at distance 0: a codeword's payload is below
    every k-subset's product, so its first subset lifts to it.  Nothing is
    tabulated.  A non-unique minimum is reported as ambiguous-fail with
    every tied candidate recorded, in ascending order.
    """
    p = moduli.p
    n = len(p)
    if len(r) != n:
        raise ContractViolation("code vector length does not match moduli")
    M = moduli.payload_bound
    r = tuple(map(int, r))
    live = [j for j in range(n) if 0 <= r[j] < p[j]]
    # any two payloads are at least n - k + 1 apart
    radius = (n - moduli.k) // 2
    dist: dict[int, int] = {}
    for size in range(min(moduli.k, len(live)), -1, -1):
        for subset in combinations(live, size):
            m0, step = _lift(r, p, subset)
            for m in range(m0, M, step):
                if m in dist:
                    continue
                d = sum(m % pj != rj for pj, rj in zip(p, r))
                if d <= radius:
                    return DecodeOutcome("corrected" if d else "exact", m, d, 1, (m,))
                dist[m] = d
        if dist:  # each candidate agrees on its subset, so lies within n - size
            break
    dmin = min(dist.values())
    winners = tuple(sorted(m for m, d in dist.items() if d == dmin))
    if len(winners) == 1:
        return DecodeOutcome("corrected", winners[0], dmin, 1, winners)
    return DecodeOutcome("ambiguous-fail", None, dmin, len(winners), winners)


def ml_decode(
    r: Sequence[int], moduli: ModuliSet, g: Optional[Sequence[np.ndarray]] = None
) -> DecodeOutcome:
    """Hamming decoding with maximum-likelihood resolution of ties, over the
    same payloads m < M as :func:`hamming_decode`.

    ``g`` gives, per position j, the recognition likelihood of every glyph of
    that letter given the observation.  On a Hamming tie, each candidate
    codeword is scored by the product over its mismatched positions of the
    normalized likelihood of the candidate's glyph; the best candidate wins,
    smallest m on equal scores.  Likelihoods are combined in log space.
    """
    return _resolve_tie(hamming_decode(r, moduli), r, moduli, g)


def _resolve_tie(
    base: DecodeOutcome,
    r: Sequence[int],
    moduli: ModuliSet,
    g: Optional[Sequence[np.ndarray]],
) -> DecodeOutcome:
    """The maximum-likelihood step of :func:`ml_decode` on a Hamming outcome;
    ``g`` is read only when ``base`` is an ambiguous-fail."""
    if base.status != "ambiguous-fail":
        return base
    if g is None:
        raise ContractViolation("ambiguous code vector requires a likelihood table")
    p = moduli.p
    if len(g) != len(p):
        raise ContractViolation("likelihood table length does not match moduli")
    rows, log_sums = [], []
    for j, row in enumerate(g):
        row = np.asarray(row, dtype=float)
        if row.ndim != 1 or row.shape[0] < p[j]:
            raise ContractViolation(
                f"likelihood row {j} must cover at least {p[j]} glyphs"
            )
        # min propagates NaN and the sum is inf when an entry is, so a row
        # passes only when it is finite and non-negative with positive sum
        total = row.sum()
        if not (row.min() >= 0 and 0 < total < math.inf):
            raise ContractViolation(
                f"likelihood row {j} must be finite and non-negative with positive sum"
            )
        rows.append(row)
        log_sums.append(math.log(total))
    r = tuple(map(int, r))
    best_m = None
    best_score = -math.inf
    for m in base.candidates:  # ascending, each below the payload bound
        score = 0.0
        for pj, rj, row, log_sum in zip(p, r, rows, log_sums):
            cj = m % pj
            if cj == rj:
                continue
            num = row[cj]
            if num <= 0.0:
                score = -math.inf
                break
            score += math.log(num) - log_sum
        if score > best_score:
            best_score = score
            best_m = m
    if best_m is None or best_score == -math.inf:
        return base
    return DecodeOutcome(
        "corrected-ml", best_m, base.min_hamming, base.candidate_count, base.candidates
    )


_DISTANCE_CHUNK = 512  # codewords compared with all others per step


def min_distance(moduli: ModuliSet) -> int:
    """Brute-force minimum pairwise Hamming distance over all codewords."""
    M = moduli.payload_bound
    if M < 2:
        raise ContractViolation("need at least two codewords")
    m = np.arange(M, dtype=np.int64)[:, None]
    table = np.mod(m, np.asarray(moduli.p, dtype=np.int64)[None, :])
    best = moduli.n
    for start in range(0, M, _DISTANCE_CHUNK):
        block = table[start : start + _DISTANCE_CHUNK]
        # pairwise distances between this chunk and all codewords
        diff = (block[:, None, :] != table[None, :, :]).sum(axis=2)
        rows = np.arange(start, start + block.shape[0])
        diff[np.arange(block.shape[0]), rows] = moduli.n + 1  # mask self-pairs
        best = min(best, int(diff.min()))
    return best


def block_success_printed(p1: float, ml: bool = False, n: int = 5) -> float:
    """Block-success expressions exactly as printed: the single-term forms
    C(n,1) p^(n-1) (1-p) for Hamming decoding and C(n,2) p^(n-2) (1-p)^2 for
    maximum-likelihood decoding."""
    if ml:
        return math.comb(n, 2) * p1 ** (n - 2) * (1 - p1) ** 2
    return math.comb(n, 1) * p1 ** (n - 1) * (1 - p1)


def block_success_cumulative(p1: float, ml: bool = False, n: int = 5) -> float:
    """Cumulative block-success probability: at most one correctable error for
    Hamming decoding, at most two with maximum-likelihood resolution."""
    errors = 2 if ml else 1
    return sum(
        math.comb(n, e) * p1 ** (n - e) * (1 - p1) ** e for e in range(errors + 1)
    )
