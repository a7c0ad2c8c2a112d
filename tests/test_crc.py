import itertools
import tracemalloc

import numpy as np
import pytest
from oracles import (
    brute_hamming,
    candidate_loop_resolve_tie,
    inverse_sum_crt_reconstruct,
    outcome,
    scan_hamming_decode,
)

from glyphcode.crc import (
    DecodeOutcome,
    ModuliSet,
    _resolve_tie,
    block_success_cumulative,
    block_success_printed,
    crt_reconstruct,
    encode_phi,
    hamming_decode,
    hamming_distance,
    min_distance,
    ml_decode,
)
from glyphcode.errors import ContractViolation
from glyphcode.pipeline import choose_moduli

P5 = ModuliSet((2, 3, 5, 7, 11), 3)


def brute_crt(r, p):
    total = 1
    for x in p:
        total *= x
    for m in range(total):
        if all(m % pi == ri for pi, ri in zip(p, r)):
            return m
    raise AssertionError("no solution")


def test_moduli_validation():
    with pytest.raises(ContractViolation):
        ModuliSet((2, 4), 1)
    with pytest.raises(ContractViolation):
        ModuliSet((2, 3, 5), 3)
    with pytest.raises(ContractViolation):
        ModuliSet((0, 3), 1)
    assert P5.payload_bound == 30
    assert P5.total_product == 2310


def test_crt_examples():
    assert crt_reconstruct((0, 0, 0), ModuliSet((3, 5, 7), 2)) == 0
    assert crt_reconstruct((2, 3, 2), ModuliSet((3, 5, 7), 2)) == 23
    assert crt_reconstruct((2, 3, 2), ModuliSet((3, 5, 7), 2)) == brute_crt(
        (2, 3, 2), (3, 5, 7)
    )
    assert crt_reconstruct((1, 2, 2, 3, 6), P5) == 17


def test_encode_examples():
    assert encode_phi(0, P5) == (0, 0, 0, 0, 0)
    assert encode_phi(17, P5) == (1, 2, 2, 3, 6)
    assert encode_phi(29, P5) == (1, 2, 4, 1, 7)
    with pytest.raises(ContractViolation):
        encode_phi(30, P5)


def test_hamming_distance():
    assert hamming_distance((2, 3, 1, 0, 6), (2, 0, 1, 0, 7)) == 2
    assert hamming_distance((1, 2, 3), (1, 2, 3)) == 0
    assert hamming_distance((0, 0, 0), (1, 1, 1)) == 3
    with pytest.raises(ContractViolation):
        hamming_distance((1,), (1, 2))


def test_hamming_decode_fast_path():
    out = hamming_decode(encode_phi(17, P5), P5)
    assert out.status == "exact" and out.m == 17 and out.min_hamming == 0


def test_hamming_decode_single_error():
    r = list(encode_phi(17, P5))
    r[4] = 9
    out = hamming_decode(r, P5)
    assert out.status == "corrected" and out.m == 17 and out.min_hamming == 1


def test_hamming_decode_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = tuple(int(rng.integers(p)) for p in P5.p)
        out = hamming_decode(r, P5)
        dmin, winners = brute_hamming(r, P5, 30)
        assert out.min_hamming == dmin
        if len(winners) == 1:
            assert out.m == winners[0]
        else:
            assert out.status == "ambiguous-fail"
            assert out.candidates == tuple(winners)


# the differential test's moduli: n = 2, 4 and 5 with k = 1, 2 and 3, from the
# channel regime (2, 3, 5, 29, 31) to wide capacities
DIFF_MODULI = [
    ModuliSet((5, 7), 1),
    ModuliSet((7, 9, 11, 13), 1),
    ModuliSet((3, 4, 5, 7), 2),
    ModuliSet((5, 7, 8, 9), 3),
    ModuliSet((2, 3, 5, 7, 11), 2),
    ModuliSet((2, 3, 5, 29, 31), 3),
    ModuliSet((29, 31, 37, 41, 43), 3),
]


def _noisy(rng, moduli, m):
    """Residues of m with 0..n positions redrawn, one in ten out of range."""
    r = [m % p for p in moduli.p]
    for j in rng.permutation(moduli.n)[: int(rng.integers(moduli.n + 1))]:
        if rng.random() < 0.1:
            r[j] = moduli.p[j] + int(rng.integers(3))
        else:
            r[j] = int(rng.integers(moduli.p[j]))
    return r


def _tie(rng, moduli, M):
    """Residues split evenly between two payloads below M that share one
    residue, so both lie at the same distance more often than not."""
    p = moduli.p
    a = int(rng.integers(M))
    j0 = int(rng.integers(moduli.n))
    same = [b for b in range(a % p[j0], M, p[j0]) if b != a]
    b = int(rng.choice(same)) if same else int(rng.integers(M))
    r = [a % pj for pj in p]
    rest = [int(j) for j in rng.permutation(moduli.n) if j != j0]
    for j in rest[: len(rest) // 2]:
        r[j] = b % p[j]
    if len(rest) % 2:
        r[rest[-1]] = int(rng.integers(p[rest[-1]]))
    return r


def test_hamming_decode_matches_scan_oracle():
    """Subset CRT returns exactly what the full scan returns: status, payload,
    distance and the whole ascending tie set, also for a caller-supplied M
    below, above and beyond the moduli's product."""
    rng = np.random.default_rng(3)
    ties = dict.fromkeys(DIFF_MODULI, 0)
    for moduli in DIFF_MODULI:
        bound = moduli.payload_bound
        Ms = [None, max(1, bound // 3)]
        if moduli.total_product <= 10_000:
            Ms += [3 * bound + 1, moduli.total_product + bound]
        for M in Ms:
            top = bound if M is None else M
            for trial in range(150):
                if trial % 3 == 0:
                    r = _tie(rng, moduli, top)
                else:
                    r = _noisy(rng, moduli, int(rng.integers(top)))
                got = hamming_decode(r, moduli, M)
                assert got == scan_hamming_decode(r, moduli, M), (moduli, M, r)
                ties[moduli] += got.status == "ambiguous-fail"
    assert min(ties.values()) >= 100, ties


def test_crt_matches_inverse_sum_oracle():
    """Garner's lifting returns what the sum over positions returns, and
    refuses a bad vector with the same error."""
    rng = np.random.default_rng(8)
    sets = DIFF_MODULI + [ModuliSet((1, 2, 3), 1), ModuliSet((37, 41, 43, 47, 53), 3)]
    for moduli in sets:
        p = moduli.p
        for trial in range(200):
            r = [int(rng.integers(pj)) for pj in p]
            if trial % 10 == 0:  # out of range, negative, or one residue short
                j = int(rng.integers(moduli.n))
                r[j] = [p[j], -1, None][trial // 10 % 3]
                if r[j] is None:
                    del r[j]
            got = outcome(crt_reconstruct, r, moduli)
            assert got == outcome(inverse_sum_crt_reconstruct, r, moduli), (moduli, r)


def _likelihood_rows(rng, moduli, zeros):
    """One row per position, some longer than the modulus, with about a
    ``zeros`` share of zero entries and never a zero sum."""
    rows = []
    for pj in moduli.p:
        row = rng.random(pj + int(rng.integers(3)))
        row[rng.random(row.shape[0]) < zeros] = 0.0
        if not row.any():
            row[int(rng.integers(row.shape[0]))] = 1.0
        rows.append(row)
    return rows


def test_resolve_tie_matches_candidate_loop_oracle():
    """The tie step returns the same DecodeOutcome as the step that encoded
    every candidate, on random ties with zero likelihoods (so -inf scores),
    and refuses candidates past the payload bound with the same error."""
    rng = np.random.default_rng(9)
    ties = dict.fromkeys(DIFF_MODULI, 0)
    minus_inf = 0
    for moduli in DIFF_MODULI:
        bound = moduli.payload_bound
        Ms = [None]
        if moduli.total_product <= 10_000:
            Ms.append(3 * bound + 1)
        for M in Ms:
            for trial in range(200):
                r = _tie(rng, moduli, bound if M is None else M)
                base = hamming_decode(r, moduli, M)
                if base.status != "ambiguous-fail":
                    continue
                ties[moduli] += 1
                g = _likelihood_rows(rng, moduli, zeros=[0.0, 0.3, 0.8][trial % 3])
                got = outcome(_resolve_tie, base, r, moduli, g)
                assert got == outcome(candidate_loop_resolve_tie, base, r, moduli, g)
                minus_inf += got == ("returned", base)
    assert min(ties.values()) >= 50, ties
    assert minus_inf >= 50


def test_resolve_tie_refuses_non_finite_rows():
    """A NaN or infinite likelihood row is refused; it used to decide the tie
    (a NaN or inf row at position 0 or 1 gave m=25 instead of m=0)."""
    moduli = ModuliSet((2, 3, 5, 29, 31), 3)
    r = [1, 1, 0, 0, 0]
    base = hamming_decode(r, moduli)
    assert base.status == "ambiguous-fail" and set(base.candidates) >= {0, 25}
    uniform = [np.full(p, 1.0 / p) for p in moduli.p]
    assert _resolve_tie(base, r, moduli, uniform).m == 0
    for bad in (np.nan, np.inf, -np.inf):
        for j in (0, 1, 3):
            for whole in (True, False):
                g = [row.copy() for row in uniform]
                if whole:
                    g[j][:] = bad
                else:
                    g[j][0] = bad
                with pytest.raises(ContractViolation, match=f"likelihood row {j}"):
                    ml_decode(r, moduli, g=g)


def test_decode_memory_is_bounded():
    """Decoding over 300 distinct wide moduli sets allocates no per-set table."""
    rng = np.random.default_rng(5)
    sets = {}
    while len(sets) < 300:
        moduli = choose_moduli(tuple(int(c) for c in rng.integers(36, 46, size=5)), 3)
        sets.setdefault(moduli.p, moduli)
    vectors = []
    for moduli in sets.values():
        m = int(rng.integers(moduli.payload_bound))
        r = list(encode_phi(m, moduli))
        j = int(rng.integers(moduli.n))
        r[j] = (r[j] + 1) % moduli.p[j]
        vectors.append((m, r, moduli))
    tracemalloc.start()
    try:
        for m, r, moduli in vectors:
            out = hamming_decode(r, moduli)
            assert out.status == "corrected" and out.m == m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB"


def find_two_error_tie():
    for m in range(30):
        cw = encode_phi(m, P5)
        for i, j in itertools.combinations(range(5), 2):
            for vi in range(P5.p[i]):
                for vj in range(P5.p[j]):
                    if vi == cw[i] or vj == cw[j]:
                        continue
                    r = list(cw)
                    r[i], r[j] = vi, vj
                    out = hamming_decode(r, P5)
                    if out.status == "ambiguous-fail":
                        return m, r
    raise AssertionError("no tie found")


def test_two_error_tie_exists():
    m, r = find_two_error_tie()
    out = hamming_decode(r, P5)
    assert out.candidate_count >= 2
    assert m in out.candidates


def test_ml_decode_uniform_is_smallest_m():
    _, r = find_two_error_tie()
    base = hamming_decode(r, P5)
    g = [np.full(p, 1.0 / p) for p in P5.p]
    out = ml_decode(r, P5, g=g)
    assert out.status == "corrected-ml"
    assert out.m == min(base.candidates)


def test_ml_decode_informative_recovers_truth():
    m, r = find_two_error_tie()
    cw = encode_phi(m, P5)
    g = []
    for j, p in enumerate(P5.p):
        row = np.full(p, 0.05)
        row[r[j]] = 1.0          # the observed glyph ranks first
        if cw[j] != r[j]:
            row[cw[j]] = 0.8     # the true glyph ranks second
        g.append(row / row.sum())
    out = ml_decode(r, P5, g=g)
    assert out.status == "corrected-ml" and out.m == m
    # hand verification: the true candidate maximizes the mismatched-position likelihood product
    def score(cand):
        cwc = encode_phi(cand, P5)
        prod = 1.0
        for j in range(5):
            if cwc[j] != r[j]:
                prod *= g[j][cwc[j]] / g[j].sum()
        return prod
    base = hamming_decode(r, P5)
    assert max(base.candidates, key=score) == m


def test_ml_decode_row_rescale_invariance():
    m, r = find_two_error_tie()
    cw = encode_phi(m, P5)
    g = []
    for j, p in enumerate(P5.p):
        row = np.full(p, 0.05)
        row[r[j]] = 1.0
        row[cw[j]] = max(row[cw[j]], 0.8)
        g.append(row)
    out1 = ml_decode(r, P5, g=g)
    g2 = [row * (7.0 + j) for j, row in enumerate(g)]
    out2 = ml_decode(r, P5, g=g2)
    assert out1.m == out2.m and out1.status == out2.status


def test_ml_decode_requires_table_on_ambiguity():
    _, r = find_two_error_tie()
    with pytest.raises(ContractViolation):
        ml_decode(r, P5)


def test_ml_decode_non_ambiguous_passthrough():
    r = encode_phi(11, P5)
    g = [np.full(p, 1.0 / p) for p in P5.p]
    assert ml_decode(r, P5, g=g) == hamming_decode(r, P5)


def test_min_distance_examples():
    assert min_distance(P5) == 3  # n - k + 1
    assert min_distance(ModuliSet((3, 5), 1)) == 2
    assert min_distance(ModuliSet((2, 3, 5, 7), 3)) == 2


def test_outcome_text():
    out = DecodeOutcome("exact", 5, 0, 1, (5,))
    assert "status=exact" in out.as_text() and "m=5" in out.as_text()


def test_block_success_forms():
    p1 = 0.9
    assert block_success_printed(p1) == pytest.approx(5 * p1**4 * 0.1)
    assert block_success_printed(p1, ml=True) == pytest.approx(10 * p1**3 * 0.01)
    assert block_success_cumulative(p1) == pytest.approx(p1**5 + 5 * p1**4 * 0.1)
    assert block_success_cumulative(p1, ml=True) == pytest.approx(
        p1**5 + 5 * p1**4 * 0.1 + 10 * p1**3 * 0.01
    )
