"""Brute-force oracles for the Chinese Remainder code's two searches and
for the outline distance.

``scan_hamming_decode`` is the decoder that compared a vector with every
codeword, and ``dfs_choose_moduli`` the moduli search that tried every
smaller value after its bound had failed; both are kept here, with the
plainer ``brute_hamming`` and ``oracle_choose``, so the fast searches in
``glyphcode.crc`` and ``glyphcode.pipeline`` can be checked against them.
``scale_to_bbox`` and ``scalar_outline_distance`` are the one-pair outline
distance that the stacked ``glyphcode.outline.OutlineStack`` replaced.

``printed_objective_and_gradients`` and ``printed_fit`` are the perceptual
objective as printed, with its separate log-sigmoid and sigmoid passes and
``np.add.at`` scatters, and the fit that called it, which unions the glyphs
of every response (``response_loop_connected_components``).
``answer_loop_synth_responses`` computes one choice probability per answer,
and ``trial_loop_per_glyph_accuracy`` recognizes one noisy observation at a
time.  The one-pass objective, the union over distinct pairs, the batched
rater answers and the batched oracle trials must match them exactly.

``BroadcastStack`` is the outline stack whose rescale broadcast over the
length-2 coordinate axis, and ``attempt_loop_inject_errors`` the channel that
recognized each of a position's up to 32 attempts on its own, through
``attempt_loop_simulate_recognition`` and ``attempt_loop_recognize_vector``.
The per-coordinate kernel and the batched retries must match them exactly.

``inverse_sum_crt_reconstruct`` is CRT as a sum over the positions, and
``candidate_loop_resolve_tie`` the tie step that encoded every candidate with
``encode_phi``.  ``IndexKey`` is the permutation key that mapped one letter at
a time and inverted by ``tuple.index``; ``loop_letter_sequence``,
``loop_blocks`` and the ``loop_*`` embed, extract, sign and verify built on
them are the per-letter layout, codec and key paths.  They frame, cut and
join the message as '0'/'1' strings through ``string_frame_message``,
``string_unframe_message``, ``string_chunk``, ``string_chunk_message`` and
``string_bits``, the string codec the package once had, kept here so that
no oracle shares the package's bit handling.  The table-driven paths in
``glyphcode.crc``, ``glyphcode.pipeline`` and ``glyphcode.crypto`` must
match them exactly, errors included.

``two_phase_max_clique`` is the maximum clique found by a binary search for
the clique size and one bounded search per node for the lexicographically
smallest witness (``_clique_bound_search``); the one branch and bound in
``glyphcode.codebook.max_clique`` must return the same clique.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from glyphcode.crc import (
    DecodeOutcome,
    ModuliSet,
    encode_phi,
    hamming_decode,
    hamming_distance,
)
from glyphcode.channel import RecognitionResult, _probabilities
from glyphcode.codebook import ConfusionGraph
from glyphcode.crypto import Segment, SegmentResult, VerificationReport, content_hash
from glyphcode.errors import (
    CapacityExceededError,
    ContractViolation,
    CorruptFrameError,
    DocumentTooSmallError,
    GlyphcodeError,
    KeyMismatchError,
    PartialDecodeError,
    SigningError,
)
from glyphcode.outline import GlyphOutline, OutlineStack
from glyphcode import perceptual
from glyphcode.perceptual import (
    RaterReliabilities,
    Response,
    SimilarityScores,
)
from glyphcode.pipeline import Block, EncodedDocument, _choose_moduli_cached
from glyphcode.util import stable_seed


def loop_bits_from_bytes(data):
    """Big-endian bit string for a byte payload, byte by byte."""
    return "".join(f"{b:08b}" for b in data)


LENGTH_PREFIX_BITS = 32
_INT64_BITS = 62


def string_frame_message(bits: str, total_bits: int) -> str:
    """Length-prefix framing: 32-bit big-endian payload bit count, payload,
    zero padding out to the document's full coded width."""
    if bits.count("0") + bits.count("1") != len(bits):
        raise ContractViolation("message must be a bit string of '0'/'1'")
    if len(bits) >= 1 << LENGTH_PREFIX_BITS:
        raise CapacityExceededError("message too long for the length prefix")
    framed = format(len(bits), f"0{LENGTH_PREFIX_BITS}b") + bits
    if len(framed) > total_bits:
        raise CapacityExceededError(
            f"framed message needs {len(framed)} bits, document holds {total_bits}"
        )
    return framed + "0" * (total_bits - len(framed))


def string_unframe_message(bits: str) -> str:
    if len(bits) < LENGTH_PREFIX_BITS:
        raise CorruptFrameError("fewer bits than the length prefix")
    length = int(bits[:LENGTH_PREFIX_BITS], 2)
    if length > len(bits) - LENGTH_PREFIX_BITS:
        raise CorruptFrameError(
            f"length prefix {length} exceeds available {len(bits) - LENGTH_PREFIX_BITS} bits"
        )
    return bits[LENGTH_PREFIX_BITS : LENGTH_PREFIX_BITS + length]


def _payload_dtype(widths: np.ndarray):
    """int64 while every payload fits it, else Python integers."""
    return np.int64 if widths.max(initial=0) <= _INT64_BITS else object


def _bit_matrix(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row per block, as wide as the widest: each column's big-endian
    shift, and whether the column is one of the block's bits."""
    shifts = widths[:, None] - 1 - np.arange(widths.max(initial=0))
    return np.maximum(shifts, 0), shifts >= 0


def string_chunk(framed: str, widths: np.ndarray) -> np.ndarray:
    """Cut widths[t] bits per block, big-endian; bits past the end of
    ``framed`` read 0."""
    digits = np.zeros(int(widths.sum()), dtype=np.uint8)
    if len(framed) > len(digits):
        raise ContractViolation("framed message exceeds total block width")
    if framed.count("0") + framed.count("1") != len(framed):
        raise ContractViolation("framed message must be a bit string of '0'/'1'")
    digits[: len(framed)] = np.frombuffer(framed.encode("ascii"), dtype=np.uint8) - ord("0")
    shifts, mine = _bit_matrix(widths)
    at = np.cumsum(widths)[:, None] - 1 - shifts  # each bit's place in ``digits``
    bits = np.where(mine, digits[at], 0).astype(_payload_dtype(widths))
    return (bits << shifts).sum(axis=1)


def string_bits(payloads: np.ndarray, widths: np.ndarray) -> str:
    """Each block's payload as its low widths[t] bits, big-endian, joined."""
    shifts, mine = _bit_matrix(widths)
    digits = ((payloads[:, None] >> shifts) & 1)[mine].astype(np.uint8)
    return (digits + ord("0")).tobytes().decode("ascii")


def string_chunk_message(framed: str, blocks) -> list[int]:
    """Cut bit_width(t) bits per block, big-endian: :func:`string_chunk` over
    the per-block view."""
    widths = np.array([b.bit_width for b in blocks], dtype=np.int64)
    return string_chunk(framed, widths).tolist()


def _residue_table(p, M):
    """(M, n) table of residues of every payload value against every modulus."""
    m = np.arange(M, dtype=np.int64)[:, None]
    return np.mod(m, np.asarray(p, dtype=np.int64)[None, :])


def scan_hamming_decode(r, moduli):
    """Decode a code vector by minimum Hamming distance over m in [0, M),
    with M the moduli set's payload bound.

    Fast path: if the residues are all in range and CRT-reconstruct below M,
    the vector is a valid codeword (distance 0).  Otherwise a brute-force scan
    finds the minimizer; a non-unique minimum is reported as ambiguous-fail
    with every tied candidate recorded.
    """
    p = moduli.p
    if len(r) != len(p):
        raise ContractViolation("code vector length does not match moduli")
    M = moduli.payload_bound
    r = tuple(int(x) for x in r)
    if all(0 <= ri < pi for ri, pi in zip(r, p)):
        m_tilde = inverse_sum_crt_reconstruct(r, moduli)
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


def scale_to_bbox(outline, reference):
    """Affinely map ``outline``'s bounding box onto ``reference``'s."""
    lo_s, hi_s = outline.bounding_box()
    lo_r, hi_r = reference.bounding_box()
    span_s = hi_s - lo_s
    span_r = hi_r - lo_r
    # A degenerate axis (zero extent) keeps unit scale on that axis.
    scale = np.where(span_s > 0, span_r / np.where(span_s > 0, span_s, 1.0), 1.0)
    return GlyphOutline((outline.vertices - lo_s) * scale + lo_r)


def scalar_outline_distance(f, u):
    """Vertex-wise L2 distance between ``f`` and ``u``.

    ``u`` is first scaled so its bounding box matches ``f``'s, then the L2
    norm over corresponding vertex pairs is returned.  Zero iff the outlines
    coincide after scaling; uniform scaling of ``u`` therefore cancels.
    """
    if f.vertex_count != u.vertex_count:
        raise ContractViolation(
            f"vertex count mismatch: {f.vertex_count} vs {u.vertex_count}"
        )
    scaled = scale_to_bbox(u, f)
    return float(np.linalg.norm(f.vertices - scaled.vertices))


def _sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


def _log_sigmoid(z):
    return np.where(z >= 0, -np.log1p(np.exp(-z)), z - np.log1p(np.exp(z)))


def printed_objective_and_gradients(
    s: np.ndarray,
    r: np.ndarray,
    idx_i: np.ndarray,
    idx_j: np.ndarray,
    idx_u: np.ndarray,
    q: np.ndarray,
    regularization: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative log-likelihood plus quadratic gauge penalty, with analytic
    gradients in the scores and reliabilities."""
    z = r[idx_u] * (s[idx_i] - s[idx_j])
    # log p(q=1) = log sigmoid(-z), log p(q=0) = log sigmoid(z)
    loglik = np.where(q == 1, _log_sigmoid(-z), _log_sigmoid(z))
    value = -float(loglik.sum())
    value += regularization * (float(s @ s) + float(r @ r))
    # d(-loglik)/dz = sigmoid(z) - (1 - q)
    dz = _sigmoid(z) - (1 - q)
    gs = np.zeros_like(s)
    np.add.at(gs, idx_i, dz * r[idx_u])
    np.add.at(gs, idx_j, -dz * r[idx_u])
    gr = np.zeros_like(r)
    np.add.at(gr, idx_u, dz * (s[idx_i] - s[idx_j]))
    gs += 2 * regularization * s
    gr += 2 * regularization * r
    return value, gs, gr


def response_loop_connected_components(n_glyphs, idx_i, idx_j):
    """Components of the comparison graph, with one union per response."""
    parent = list(range(n_glyphs))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(idx_i, idx_j):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for g in range(n_glyphs):
        comps.setdefault(find(g), set()).add(g)
    return list(comps.values())


def printed_fit(responses, max_iterations=2000):
    """Fit similarity scores and rater reliabilities to 2AFC responses.

    Deterministic given the iteration cap; the objective is non-increasing
    across accepted steps (backtracking line search).  Scores come back
    min-max normalized to [0, 1] (all 0.5 if they are all equal).  A
    disconnected comparison graph is not an error, but the affected
    components are flagged in the returned info dict since scores are only
    identified within one.
    """
    if not responses:
        raise ContractViolation("responses must be non-empty")
    glyphs = sorted({g for resp in responses for g in (resp.glyph_i, resp.glyph_j)}, key=repr)
    raters = sorted({resp.rater for resp in responses}, key=repr)
    g_index = {g: i for i, g in enumerate(glyphs)}
    u_index = {u: i for i, u in enumerate(raters)}
    idx_i = np.array([g_index[resp.glyph_i] for resp in responses])
    idx_j = np.array([g_index[resp.glyph_j] for resp in responses])
    idx_u = np.array([u_index[resp.rater] for resp in responses])
    q = np.array([resp.q for resp in responses], dtype=float)

    # init: flat scores; reliabilities at -1 so that, with the formula as
    # printed, the initial gradient pushes majority-vote winners upward
    s = np.full(len(glyphs), 0.5)
    r = np.full(len(raters), -1.0)

    value, gs, gr = printed_objective_and_gradients(
        s, r, idx_i, idx_j, idx_u, q, perceptual.REGULARIZATION
    )
    step = perceptual.INITIAL_STEP
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        grad_norm_sq = float(gs @ gs + gr @ gr)
        if grad_norm_sq == 0.0:
            break
        accepted = False
        while step > 1e-18:
            s_new = s - step * gs
            r_new = r - step * gr
            v_new, gs_new, gr_new = printed_objective_and_gradients(
                s_new, r_new, idx_i, idx_j, idx_u, q, perceptual.REGULARIZATION
            )
            if v_new <= value - 1e-4 * step * grad_norm_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        rel = (value - v_new) / max(abs(value), 1.0)
        s, r, value, gs, gr = s_new, r_new, v_new, gs_new, gr_new
        step *= 1.3  # let the step grow back after cautious stretches
        if rel < perceptual.REL_TOLERANCE:
            break

    components = response_loop_connected_components(len(glyphs), idx_i, idx_j)
    lo, hi = float(s.min()), float(s.max())
    if hi > lo:
        s_norm = (s - lo) / (hi - lo)
    else:
        s_norm = np.full_like(s, 0.5)
    info = {
        "iterations": iterations,
        "objective": value,
        "disconnected_components": [
            {glyphs[i] for i in comp} for comp in components
        ]
        if len(components) > 1
        else [],
    }
    return (
        SimilarityScores({g: float(s_norm[g_index[g]]) for g in glyphs}),
        RaterReliabilities({u: float(r[u_index[u]]) for u in raters}),
        info,
    )


def answer_loop_synth_responses(
    planted_s, planted_r, questions_per_rater=16, seed=0, control_questions=4
):
    """2AFC responses drawn one answer at a time from the planted model, with
    each rater's control pairs asked in both orders and raters with more than
    one inconsistency among them rejected."""
    glyphs = sorted(planted_s, key=repr)
    if len(glyphs) < 2:
        raise ContractViolation("need at least two glyphs")
    for v in list(planted_s.values()) + list(planted_r.values()):
        if not math.isfinite(v):
            raise ContractViolation("planted values must be finite")
    out = []
    for rater in sorted(planted_r, key=repr):
        rng = np.random.default_rng(stable_seed(seed, "rater", rater))
        r_u = planted_r[rater]

        def answer(gi, gj):
            z = r_u * (planted_s[gi] - planted_s[gj])
            # the printed sigmoid overflows exp in the branch np.where discards
            with np.errstate(over="ignore", invalid="ignore"):
                p1 = float(_sigmoid(-z))
            return int(rng.random() < p1)

        inconsistencies = 0
        for _ in range(control_questions // 2):
            a, b = rng.choice(len(glyphs), size=2, replace=False)
            gi, gj = glyphs[int(a)], glyphs[int(b)]
            if answer(gi, gj) == answer(gj, gi):
                inconsistencies += 1
        if inconsistencies > 1:
            continue
        for _ in range(questions_per_rater):
            a, b = rng.choice(len(glyphs), size=2, replace=False)
            gi, gj = glyphs[int(a)], glyphs[int(b)]
            out.append(Response(gi, gj, rater, answer(gi, gj)))
    return out


def _noisy(outline, sigma, seed):
    if sigma == 0.0:
        return outline
    rng = np.random.default_rng(seed)
    return GlyphOutline(outline.vertices + rng.normal(0.0, sigma, outline.vertices.shape))


def trial_loop_per_glyph_accuracy(outlines, params):
    """Empirical per-glyph classification accuracy within a glyph subset."""
    if len(outlines) < 2:
        raise ContractViolation("need at least two glyphs")
    stack = OutlineStack(outlines)
    # content-derived, so renumbering glyph ids does not change the noise
    subset_key = stable_seed(*(o.vertices.tobytes() for o in outlines))
    per = max(1, params.trials // len(outlines))
    accs = np.empty(len(outlines))
    for which, outline in enumerate(outlines):
        hits = 0
        for t in range(per):
            seed = stable_seed(params.seed, "oracle", subset_key, which, t)
            f = _noisy(outline, params.sigma, seed)
            hits += int(np.argmin(stack.distances(f))) == which
        accs[which] = hits / per
    return accs


class BroadcastStack:
    """Outlines of one vertex count, stacked once for vectorized distances."""

    def __init__(self, outlines):
        counts = {o.vertex_count for o in outlines}
        if len(counts) != 1:
            raise ContractViolation(
                f"stacked outlines need one vertex count, got {sorted(counts)}"
            )
        (self.vertex_count,) = counts
        u = np.stack([o.vertices for o in outlines])  # (N, V, 2)
        lo = u.min(axis=1, keepdims=True)
        self._centered = u - lo
        span = u.max(axis=1, keepdims=True) - lo
        # a degenerate axis (zero extent) keeps unit scale on that axis
        self._live = span > 0
        self._divisor = np.where(self._live, span, 1.0)

    def distances(self, f):
        return self.batch_distances(f.vertices[None])[0]

    def batch_distances(self, observed):
        if observed.shape[1] != self.vertex_count:
            raise ContractViolation(
                f"vertex count mismatch: {observed.shape[1]} vs {self.vertex_count}"
            )
        f = observed[:, None]  # (B, 1, V, 2)
        lo_f = f.min(axis=2, keepdims=True)
        span_f = f.max(axis=2, keepdims=True) - lo_f
        scale = np.where(self._live, span_f / self._divisor, 1.0)
        # in place: this (B, N, V, 2) array is the only one of its size
        d = self._centered * scale
        d += lo_f
        np.subtract(f, d, out=d)
        np.square(d, out=d)
        d = np.sqrt(d.sum(axis=(2, 3)))
        # identical outlines must register distance 0 exactly so an exact match
        # takes the full probability mass; the rescale above can leave ~1e-16
        d[d < 1e-9] = 0.0
        return d


def attempt_loop_recognize_vector(f, entry):
    d = BroadcastStack([g.outline for g in entry.glyphs]).distances(f)
    return RecognitionResult(_probabilities(d), int(np.argmin(d)))


def attempt_loop_simulate_recognition(true_index, entry, params, trial=0):
    if not (0 <= true_index < entry.capacity):
        raise ContractViolation("true_index out of range")
    f = _noisy(
        entry.glyphs[true_index].outline,
        params.sigma,
        stable_seed(params.seed, "obs", true_index, trial),
    )
    res = attempt_loop_recognize_vector(f, entry)
    return replace(res, true_index=true_index)


def attempt_loop_inject_errors(codeword, entries, count, params, max_attempts=32, kept=None):
    """Corrupt exactly ``count`` positions of a codeword through the channel.

    Error positions are drawn without replacement; each is re-simulated until
    the channel misrecognizes the glyph (forced to the second-most-likely
    glyph if the noise never confuses it).  Non-error positions keep their
    true glyph.  ``kept``, if given, receives per position the attempt whose
    observation was kept, or None where the outcome was forced.
    """
    n = len(codeword)
    if len(entries) != n:
        raise ContractViolation("entry list length does not match codeword")
    if not (0 <= count <= n):
        raise ContractViolation("count must be in [0, n]")
    rng = np.random.default_rng(stable_seed(params.seed, "positions", tuple(codeword)))
    error_at = set(rng.choice(n, size=count, replace=False).tolist()) if count else set()
    vector = []
    table = []
    for j, (true, entry) in enumerate(zip(codeword, entries)):
        want_error = j in error_at
        first = attempt_loop_simulate_recognition(
            true, entry, params, trial=stable_seed("inject", j, 0)
        )
        res = None
        for attempt in range(max_attempts):
            cand = first if attempt == 0 else attempt_loop_simulate_recognition(
                true, entry, params, trial=stable_seed("inject", j, attempt)
            )
            if (cand.argmax_index != true) == want_error:
                res = cand
                break
        if kept is not None:
            kept.append(None if res is None else attempt)
        if res is None:
            if want_error:
                # noise too small to confuse: force the runner-up glyph
                order = np.argsort(-first.probabilities, kind="stable")
                runner_up = int(order[1]) if int(order[0]) == true else int(order[0])
                res = RecognitionResult(first.probabilities, runner_up, true)
            else:
                probs = np.zeros(entry.capacity)
                probs[true] = 1.0
                res = RecognitionResult(probs, true, true)
        vector.append(res.argmax_index)
        table.append(res.probabilities)
    return tuple(vector), table


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of the library error it
    raises and of the error that caused that one."""
    try:
        return "returned", fn(*args, **kwargs)
    except GlyphcodeError as exc:
        cause = exc.__cause__
        return type(exc), str(exc), type(cause), str(cause)


# glyph indices no int64 holds; a document may carry them, and they read as
# misread letters
BEYOND_INT64 = (10**30, 2**63, -(2**70))
# (letter, glyph index) changes for the differential tests to apply
GLYPH_CHANGES = st.lists(
    st.tuples(st.integers(0, 10**4), st.integers(-1, 12) | st.sampled_from(BEYOND_INT64)),
    max_size=4,
)


def _modinv(a, m):
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ContractViolation(f"{a} has no inverse modulo {m}") from None


def inverse_sum_crt_reconstruct(r, moduli):
    """Unique m in [0, P) with m mod p_i = r_i, as the sum of r_i (P/p_i)
    ((P/p_i)^-1 mod p_i) over the positions."""
    p = moduli.p
    if len(r) != len(p):
        raise ContractViolation("residue count does not match moduli count")
    for ri, pi in zip(r, p):
        if not (0 <= ri < pi):
            raise ContractViolation(f"residue {ri} out of range for modulus {pi}")
    P = moduli.total_product
    total = 0
    for ri, pi in zip(r, p):
        Pi = P // pi
        total += ri * _modinv(Pi, pi) * Pi
    return total % P


def candidate_loop_resolve_tie(base, r, moduli, g):
    """The maximum-likelihood step of :func:`ml_decode` on a Hamming outcome;
    ``g`` is read only when ``base`` is an ambiguous-fail."""
    if base.status != "ambiguous-fail":
        return base
    if g is None:
        raise ContractViolation("ambiguous code vector requires a likelihood table")
    p = moduli.p
    if len(g) != len(p):
        raise ContractViolation("likelihood table length does not match moduli")
    rows, sums = [], []
    for j, row in enumerate(g):
        row = np.asarray(row, dtype=float)
        if row.ndim != 1 or row.shape[0] < p[j]:
            raise ContractViolation(
                f"likelihood row {j} must cover at least {p[j]} glyphs"
            )
        total = row.sum()
        if (row < 0).any() or total <= 0:
            raise ContractViolation(f"likelihood row {j} must be non-negative with positive sum")
        rows.append(row)
        sums.append(total)
    r = tuple(int(x) for x in r)
    best_m = None
    best_score = -math.inf
    for m in base.candidates:
        cw = encode_phi(m, moduli)
        score = 0.0
        for j, (cj, rj) in enumerate(zip(cw, r)):
            if cj == rj:
                continue
            num = rows[j][cj]
            if num <= 0.0:
                score = -math.inf
                break
            score += math.log(num) - math.log(sums[j])
        if score > best_score:
            best_score = score
            best_m = m
    if best_m is None or best_score == -math.inf:
        return base
    return DecodeOutcome(
        "corrected-ml", best_m, base.min_hamming, base.candidate_count, base.candidates
    )


class IndexKey:
    """A permutation key's ``perms``, mapped one letter at a time."""

    def __init__(self, key):
        self.perms = key.perms

    def _perm(self, character):
        try:
            return self.perms[character]
        except KeyError:
            raise KeyMismatchError(f"key has no entry for character {character!r}")

    def forward(self, character, value):
        perm = self._perm(character)
        if not (0 <= value < len(perm)):
            raise KeyMismatchError(
                f"integer {value} out of range for character {character!r}"
            )
        return perm[value]

    def inverse(self, character, value):
        perm = self._perm(character)
        if not (0 <= value < len(perm)):
            raise KeyMismatchError(
                f"glyph index {value} out of range for character {character!r}"
            )
        return perm.index(value)

    def inverse_row(self, character, row):
        """Reorder a per-glyph likelihood row into embedded-integer order."""
        perm = self._perm(character)
        row = np.asarray(row, dtype=float)
        if row.shape != (len(perm),):
            raise KeyMismatchError(
                f"likelihood row length {row.shape} does not match key for {character!r}"
            )
        return row[np.asarray(perm)]


LoopLetterSequence = namedtuple("LoopLetterSequence", "letters capacities positions")


def loop_letter_sequence(text, codebook):
    letters, caps, positions = [], [], []
    for pos, ch in enumerate(text):
        if ch in codebook.entries:
            letters.append(ch)
            caps.append(codebook.capacity(ch))
            positions.append(pos)
    return LoopLetterSequence(tuple(letters), tuple(caps), tuple(positions))


def loop_blocks(capacities, n, k):
    """Greedy left-to-right block partition with the capacity-expansion rule."""
    total = len(capacities)
    cursor = 0
    while cursor + n <= total:
        window = list(range(cursor, cursor + n))
        skipped = []
        while True:
            caps = tuple(capacities[i] for i in window)
            moduli = _choose_moduli_cached(caps, k)
            if moduli is not None:
                break
            # drop the (first) lowest-capacity letter, pull in the next one
            drop = min(range(n), key=lambda j: (caps[j], j))
            skipped.append(window.pop(drop))
            nxt = cursor + n + len(skipped) - 1
            if nxt >= total:
                return
            window.append(nxt)
        yield Block(tuple(window), tuple(skipped), moduli)
        cursor += n + len(skipped)


def loop_partition_blocks(seq, n=5, k=3):
    if not seq.letters:
        raise ContractViolation("letter sequence is empty")
    return list(loop_blocks(seq.capacities, n, k))


def _loop_check_text(text, codebook):
    seq = loop_letter_sequence(text, codebook)
    if not seq.letters:
        raise DocumentTooSmallError("document contains no codebook letters")
    return seq


def loop_encode_blocks(seq, blocks, payloads, key=None):
    indices = [0] * len(seq.letters)
    for block, m in zip(blocks, payloads):
        for i, residue in zip(block.member_indices, encode_phi(m, block.moduli)):
            indices[i] = residue
    if key is not None:
        indices = [key.forward(ch, v) for ch, v in zip(seq.letters, indices)]
    return tuple(indices)


def _uniform_row(capacity):
    return np.full(capacity, 1.0 / capacity)


def _check_key_width(key, character, capacity, checked):
    if character not in checked:
        key.inverse_row(character, _uniform_row(capacity))
        checked.add(character)


def loop_decode_blocks(seq, blocks, values, row=None, key=None, checked=None):
    outcomes = []
    bits = []
    checked = set() if checked is None else checked
    for t, block in enumerate(blocks):
        members = block.member_indices
        if members[-1] >= len(values):  # members ascend
            raise PartialDecodeError(t)
        vector = []
        for i in members:
            v = values[i]
            if key is not None:
                ch = seq.letters[i]
                try:
                    v = key.inverse(ch, v)
                except KeyMismatchError as exc:
                    raise PartialDecodeError(t) from exc
                _check_key_width(key, ch, seq.capacities[i], checked)
            vector.append(v)
        outcome = hamming_decode(vector, block.moduli)
        if outcome.status == "ambiguous-fail":
            g = [
                row(i) if row is not None else _uniform_row(seq.capacities[i])
                for i in members
            ]
            outcome = candidate_loop_resolve_tie(outcome, vector, block.moduli, g)
        outcomes.append(outcome)
        if outcome.m is None:
            raise PartialDecodeError(t)
        bits.append(format(outcome.m, f"0{block.bit_width}b")[-block.bit_width :])
    return "".join(bits), outcomes


def loop_embed(text, codebook, bits, n=5, k=3, key=None):
    seq = _loop_check_text(text, codebook)
    blocks = loop_partition_blocks(seq, n, k)
    if not blocks:
        raise DocumentTooSmallError("document has zero complete blocks")
    framed = string_frame_message(bits, sum(b.bit_width for b in blocks))
    indices = loop_encode_blocks(seq, blocks, string_chunk_message(framed, blocks), key)
    return EncodedDocument(text, indices, codebook.font_id)


def loop_extract(encoded, codebook, n=5, k=3, key=None, likelihoods=None):
    seq = _loop_check_text(encoded.text, codebook)
    if len(encoded.glyph_indices) != len(seq.letters):
        raise ContractViolation("glyph index stream does not match the letter count")
    blocks = loop_partition_blocks(seq, n, k)
    if not blocks:
        raise DocumentTooSmallError("document has zero complete blocks")
    if likelihoods is not None and len(likelihoods) != len(seq.letters):
        raise ContractViolation("likelihood table does not match the letter count")

    indices = list(encoded.glyph_indices)
    if likelihoods is not None or key is not None:
        checked = set()
        for i, ch in enumerate(seq.letters):
            cap = seq.capacities[i]
            if likelihoods is not None:
                if np.asarray(likelihoods[i], dtype=float).shape != (cap,):
                    raise ContractViolation(f"likelihood row {i} has wrong length")
            if key is not None:
                indices[i] = key.inverse(ch, indices[i])
                _check_key_width(key, ch, cap, checked)

    def row(i):
        r = np.asarray(likelihoods[i], dtype=float)
        return r if key is None else key.inverse_row(seq.letters[i], r)

    bits, report = loop_decode_blocks(
        seq, blocks, indices, row if likelihoods is not None else None
    )
    return string_unframe_message(bits), report


def loop_layout(text, codebook, config, payload_bits):
    seq = loop_letter_sequence(text, codebook)
    blocks = loop_partition_blocks(seq, config.n, config.k)
    if not blocks:
        raise SigningError("document has zero complete blocks")
    need = config.digest_bits if payload_bits is None else payload_bits
    segments = []
    first = start = held = bits = 0
    for t, block in enumerate(blocks):
        # blocks cover consecutive letter ranges, so the newest one ends last
        end = max(block.member_indices + block.skipped_indices) + 1
        bits += block.bit_width
        if end - start >= config.segment_min_letters and bits - held >= need:
            segments.append(Segment(first, t + 1, start, end, held, bits))
            first, start, held = t + 1, end, bits
    if not segments:
        raise SigningError(f"segment 0 holds {bits} bits, payload needs {need}")
    segments[-1] = replace(
        segments[-1], block_end=len(blocks), seq_end=len(seq.letters), bit_end=bits
    )
    return seq, blocks, segments


def loop_segment_digest(seq, segment, hash_id):
    return content_hash("".join(seq.letters[segment.seq_start : segment.seq_end]), hash_id)


def loop_sign_scheme1(text, codebook, key, config):
    seq, blocks, segments = loop_layout(text, codebook, config, None)
    payloads = [loop_bits_from_bytes(loop_segment_digest(seq, s, config.hash_id)) for s in segments]
    chunks = [
        m
        for s, bits in zip(segments, payloads)
        for m in string_chunk_message(bits, blocks[s.block_start : s.block_end])
    ]
    return EncodedDocument(text, loop_encode_blocks(seq, blocks, chunks, key), codebook.font_id)


def loop_verify(encoded, codebook, config, key=None, verifier=None):
    if (key is None) == (verifier is None):
        raise ContractViolation("verify needs exactly one of key and verifier")
    payload_bits = config.digest_bits if verifier is None else verifier.signature_bits
    seq, blocks, segments = loop_layout(encoded.text, codebook, config, payload_bits)
    if len(encoded.glyph_indices) > len(seq.letters):
        raise ContractViolation("glyph index stream does not match the letter count")
    results = []
    checked = set()  # letters whose key width is checked
    for s in segments:
        digest = loop_segment_digest(seq, s, config.hash_id)
        try:
            bits, _ = loop_decode_blocks(
                seq,
                blocks[s.block_start : s.block_end],
                encoded.glyph_indices,
                key=key,
                checked=checked,
            )
        except PartialDecodeError:
            results.append(
                SegmentResult(s.seq_start, s.seq_end, "mismatch", "extraction-failed")
            )
            continue
        embedded = bits[:payload_bits]
        if verifier is None:
            ok = embedded == loop_bits_from_bytes(digest)[: len(embedded)]
        else:
            ok = verifier.check(digest, embedded)
        results.append(
            SegmentResult(s.seq_start, s.seq_end, "match" if ok else "mismatch")
        )
    return VerificationReport(tuple(results))


def _clique_bound_search(adj: list[int], cand: int, need: int) -> bool:
    """True iff the candidate mask contains a clique of at least ``need`` nodes.

    Branch and bound with a greedy-coloring upper bound (exact, not
    heuristic); masks are Python big-ints over node positions.
    """
    if need <= 0:
        return True

    def expand(cand: int, depth: int) -> bool:
        if depth >= need:
            return True
        # Greedy coloring: nodes of one color class are pairwise non-adjacent,
        # so the color count bounds the largest clique in cand.
        order: list[tuple[int, int]] = []  # (node, color)
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                uncolored &= ~(1 << v)
                avail &= ~(1 << v)
                avail &= ~adj[v]
        if depth + color < need:
            return False
        # Branch on nodes in reverse color order (highest bound first).
        for v, c in reversed(order):
            if depth + c < need:
                return False
            if expand(cand & adj[v], depth + 1):
                return True
            cand &= ~(1 << v)
        return False

    return expand(cand, 0)


def two_phase_max_clique(graph: ConfusionGraph) -> tuple[int, ...]:
    """Exact maximum clique with a deterministic tie-break.

    Among all maximum-cardinality cliques the lexicographically smallest id
    set is returned.
    """
    nodes = graph.nodes
    if not nodes:
        raise ContractViolation("graph must have at least one node")
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    for a, b in itertools.combinations(nodes, 2):
        if graph.has_edge(a, b):
            adj[pos[a]] |= 1 << pos[b]
            adj[pos[b]] |= 1 << pos[a]

    full = (1 << n) - 1
    # exact size by binary search over the feasibility predicate
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _clique_bound_search(adj, full, mid):
            lo = mid
        else:
            hi = mid - 1
    size = lo

    # lexicographically smallest witness: commit the smallest feasible node,
    # in ascending id order
    chosen: list[int] = []
    cand = full
    for i in range(n):
        if not (cand >> i) & 1:
            continue
        if _clique_bound_search(adj, cand & adj[i], size - len(chosen) - 1):
            chosen.append(i)
            cand &= adj[i]
            if len(chosen) == size:
                break
        else:
            cand &= ~(1 << i)
    assert len(chosen) == size
    return tuple(nodes[i] for i in chosen)
