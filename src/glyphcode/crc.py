"""Chinese Remainder code: residue encoding, CRT reconstruction, Hamming and
maximum-likelihood decoding.

A payload integer m < M (M = product of the k smallest moduli) is encoded as
its residues against n pairwise-coprime moduli.  The n - k extra residues are
redundancy: the code's minimum Hamming distance is n - k + 1, so Hamming
decoding corrects up to floor((n-k)/2) wrong residues, and a per-glyph
likelihood table resolves ties beyond that bound.

Hamming decoding never tabulates the M codewords: it lists candidates by CRT
on subsets of the received positions and holds only those candidates.  The
module keeps no cache; each ``ModuliSet`` derives its payload bound once, when
it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation

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

    ``payload_bound`` (M, the product of the k smallest moduli) is derived
    once, when the set is made, and kept in a slot.
    """

    p: tuple[int, ...]
    k: int
    payload_bound: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = tuple(int(x) for x in self.p)
        object.__setattr__(self, "p", p)
        if any(x < 1 for x in p):
            raise ContractViolation("moduli must be positive")
        if not (1 <= self.k < len(p)):
            raise ContractViolation("need 1 <= k < n")
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if math.gcd(p[i], p[j]) != 1:
                    raise ContractViolation(
                        f"moduli {p[i]} and {p[j]} are not coprime"
                    )
        object.__setattr__(self, "payload_bound", math.prod(sorted(p)[: self.k]))

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def total_product(self) -> int:
        return math.prod(self.p)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one block's code vector."""

    status: str  # exact | corrected | corrected-ml | ambiguous-fail
    m: Optional[int]
    min_hamming: int
    candidate_count: int
    candidates: tuple[int, ...] = field(default=(), repr=False)

    def as_text(self) -> str:
        m = "-" if self.m is None else str(self.m)
        return (
            f"status={self.status} m={m} "
            f"min_hamming={self.min_hamming} candidates={self.candidate_count}"
        )


def _lift(
    r: Sequence[int], p: Sequence[int], positions: Sequence[int]
) -> tuple[int, int]:
    """Garner's CRT over ``positions``: (m0, step) with step the product of
    their moduli and m0 < step the unique value with m0 mod p_j = r_j there.
    The residues must be in range; no positions give (0, 1)."""
    if not positions:
        return 0, 1
    m0, step = r[positions[0]], p[positions[0]]
    for j in positions[1:]:  # lift m0 mod step to mod step * p_j
        pj = p[j]
        m0 += step * ((r[j] - m0) * pow(step, -1, pj) % pj)
        step *= pj
    return m0, step


def crt_reconstruct(r: Sequence[int], moduli: ModuliSet) -> int:
    """Unique m in [0, P) with m mod p_i = r_i, by Garner's lifting with
    ``pow`` inverses."""
    p = moduli.p
    if len(r) != len(p):
        raise ContractViolation("residue count does not match moduli count")
    for ri, pi in zip(r, p):
        if not (0 <= ri < pi):
            raise ContractViolation(f"residue {ri} out of range for modulus {pi}")
    return _lift(r, p, range(len(p)))[0]


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


def hamming_decode(
    r: Sequence[int], moduli: ModuliSet, M: Optional[int] = None
) -> DecodeOutcome:
    """Decode a code vector by minimum Hamming distance over m in [0, M).

    Fast path: if the residues are all in range and CRT-reconstruct below M,
    the vector is a valid codeword (distance 0).  Otherwise the nearest
    payloads are found by subset CRT (Goldreich, Ron & Sudan, "Chinese
    Remaindering with Errors"): a payload at distance d agrees with the vector
    on n - d in-range positions, so CRT on every s-subset of in-range
    positions, stepped by the subset's product below M, lists every payload
    within distance n - s.  Subsets start at size k, where each yields at most
    one payload below the payload bound, and shrink only while they yield no
    candidate at all; size 0 lists all of [0, M).  Within the unique-decoding
    radius floor((n-k)/2) the first candidate found is the answer.  Nothing is
    tabulated; the payload bound is the one the moduli set derived when it was
    made.  A non-unique minimum is reported as ambiguous-fail
    with every tied candidate recorded, in ascending order.
    """
    p = moduli.p
    n = len(p)
    if len(r) != n:
        raise ContractViolation("code vector length does not match moduli")
    bound = moduli.payload_bound
    if M is None:
        M = bound
    r = tuple(map(int, r))
    live = [j for j in range(n) if 0 <= r[j] < p[j]]
    if len(live) == n:
        m_tilde = _lift(r, p, live)[0]
        if m_tilde < M:
            return DecodeOutcome("exact", m_tilde, 0, 1, (m_tilde,))
    # any other payload below the bound is at least n - k + 1 from a codeword
    radius = (n - moduli.k) // 2 if M <= bound else -1
    dist: dict[int, int] = {}
    for size in range(min(moduli.k, len(live)), -1, -1):
        for subset in combinations(live, size):
            m0, step = _lift(r, p, subset)
            for m in range(m0, M, step):
                if m in dist:
                    continue
                d = sum(m % pj != rj for pj, rj in zip(p, r))
                if d <= radius:
                    return DecodeOutcome("corrected", m, d, 1, (m,))
                dist[m] = d
        if dist:  # each candidate agrees on its subset, so lies within n - size
            break
    dmin = min(dist.values())
    winners = tuple(sorted(m for m, d in dist.items() if d == dmin))
    if len(winners) == 1:
        return DecodeOutcome("corrected", winners[0], dmin, 1, winners)
    return DecodeOutcome("ambiguous-fail", None, dmin, len(winners), winners)


def ml_decode(
    r: Sequence[int],
    moduli: ModuliSet,
    M: Optional[int] = None,
    g: Optional[Sequence[np.ndarray]] = None,
) -> DecodeOutcome:
    """Hamming decoding with maximum-likelihood resolution of ties.

    ``g`` gives, per position j, the recognition likelihood of every glyph of
    that letter given the observation.  On a Hamming tie, each candidate
    codeword is scored by the product over its mismatched positions of the
    normalized likelihood of the candidate's glyph; the best candidate wins,
    smallest m on equal scores.  Likelihoods are combined in log space.
    """
    return _resolve_tie(hamming_decode(r, moduli, M), r, moduli, g)


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
    M = moduli.payload_bound
    best_m = None
    best_score = -math.inf
    for m in base.candidates:  # ascending, never negative
        if m >= M:  # the payloads encode_phi refuses
            raise ContractViolation(f"payload {m} outside [0, {M})")
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


def min_distance(moduli: ModuliSet, chunk: int = 512) -> int:
    """Brute-force minimum pairwise Hamming distance over all codewords."""
    M = moduli.payload_bound
    if M < 2:
        raise ContractViolation("need at least two codewords")
    m = np.arange(M, dtype=np.int64)[:, None]
    table = np.mod(m, np.asarray(moduli.p, dtype=np.int64)[None, :])
    best = moduli.n
    for start in range(0, M, chunk):
        block = table[start : start + chunk]
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
