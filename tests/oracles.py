"""Brute-force oracles for the Chinese Remainder code's two searches.

``scan_hamming_decode`` is the decoder that compared a vector with every
codeword, and ``dfs_choose_moduli`` the moduli search that tried every
smaller value after its bound had failed; both are kept here, with the
plainer ``brute_hamming`` and ``oracle_choose``, so the fast searches in
``glyphcode.crc`` and ``glyphcode.pipeline`` can be checked against them.
"""

import math

import numpy as np

from glyphcode.crc import (
    DecodeOutcome,
    ModuliSet,
    crt_reconstruct,
    encode_phi,
    hamming_distance,
)
from glyphcode.errors import ContractViolation


def _residue_table(p, M):
    """(M, n) table of residues of every payload value against every modulus."""
    m = np.arange(M, dtype=np.int64)[:, None]
    return np.mod(m, np.asarray(p, dtype=np.int64)[None, :])


def scan_hamming_decode(r, moduli, M=None):
    """Decode a code vector by minimum Hamming distance over m in [0, M).

    Fast path: if the residues are all in range and CRT-reconstruct below M,
    the vector is a valid codeword (distance 0).  Otherwise a brute-force scan
    finds the minimizer; a non-unique minimum is reported as ambiguous-fail
    with every tied candidate recorded.
    """
    p = moduli.p
    if len(r) != len(p):
        raise ContractViolation("code vector length does not match moduli")
    if M is None:
        M = moduli.payload_bound
    r = tuple(int(x) for x in r)
    if all(0 <= ri < pi for ri, pi in zip(r, p)):
        m_tilde = crt_reconstruct(r, moduli)
        if m_tilde < M:
            return DecodeOutcome("exact", m_tilde, 0, 1, (m_tilde,))
    table = _residue_table(p, M)
    dist = (table != np.asarray(r, dtype=np.int64)[None, :]).sum(axis=1)
    dmin = int(dist.min())
    winners = np.flatnonzero(dist == dmin)
    if len(winners) == 1:
        return DecodeOutcome("corrected", int(winners[0]), dmin, 1, (int(winners[0]),))
    cands = tuple(int(w) for w in winners)
    return DecodeOutcome("ambiguous-fail", None, dmin, len(cands), cands)


def brute_hamming(r, moduli, M):
    best = {}
    for m in range(M):
        d = hamming_distance(encode_phi(m, moduli), r)
        best.setdefault(d, []).append(m)
    dmin = min(best)
    return dmin, best[dmin]


def _kmin_product(values, k):
    return math.prod(sorted(values)[:k])


def dfs_choose_moduli(capacities, k):
    """Best pairwise-coprime assignment p_i <= s_i by pruned depth-first search.

    Maximizes the product of the k smallest p_i; candidates are explored in
    descending value order so the first assignment reaching the optimum is the
    lexicographically largest, which is the tie-break.  Returns None when no
    assignment with every p_i >= 2 exists.
    """
    caps = [int(c) for c in capacities]
    n = len(caps)
    if n < 2 or not (1 <= k < n):
        raise ContractViolation("need n >= 2 and 1 <= k < n")
    if any(c < 1 for c in caps):
        raise ContractViolation("capacities must be >= 1")
    best_obj = 0
    best = None
    chosen = []

    def dfs(i):
        nonlocal best_obj, best
        # optimistic bound: remaining positions take their full capacity
        bound = _kmin_product(chosen + caps[i:], k)
        if bound <= best_obj:
            return
        if i == n:
            best_obj = bound
            best = tuple(chosen)
            return
        for v in range(caps[i], 1, -1):
            if all(math.gcd(v, c) == 1 for c in chosen):
                chosen.append(v)
                dfs(i + 1)
                chosen.pop()

    dfs(0)
    if best is None:
        return None
    return ModuliSet(best, k)


def oracle_choose(capacities, k):
    """Plain exhaustive coprime search without the pruning bound."""
    n = len(capacities)
    best = None
    best_obj = 0

    def rec(i, chosen):
        nonlocal best, best_obj
        if i == n:
            obj = math.prod(sorted(chosen)[:k])
            if obj > best_obj:
                best_obj = obj
                best = tuple(chosen)
            return
        for v in range(capacities[i], 1, -1):
            if all(math.gcd(v, c) == 1 for c in chosen):
                chosen.append(v)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return best_obj, best
