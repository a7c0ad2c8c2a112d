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
``np.add.at`` scatters, and the fit that called it; ``trial_loop_per_glyph_accuracy``
recognizes one noisy observation at a time.  The one-pass objective and the
batched oracle trials must match them exactly.
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
from glyphcode.outline import GlyphOutline, OutlineStack
from glyphcode.perceptual import (
    FitConfig,
    RaterReliabilities,
    SimilarityScores,
    _connected_components,
)
from glyphcode.util import stable_seed


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


def printed_fit(responses, config=FitConfig()):
    """Fit similarity scores and rater reliabilities to 2AFC responses.

    Deterministic given the config; the objective is non-increasing across
    accepted steps (backtracking line search).  Scores come back min-max
    normalized to [0, 1] (all 0.5 if they are all equal).  A disconnected
    comparison graph is not an error, but the affected components are flagged
    in the returned info dict since scores are only identified within one.
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
        s, r, idx_i, idx_j, idx_u, q, config.regularization
    )
    step = config.initial_step
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        grad_norm_sq = float(gs @ gs + gr @ gr)
        if grad_norm_sq == 0.0:
            break
        accepted = False
        while step > 1e-18:
            s_new = s - step * gs
            r_new = r - step * gr
            v_new, gs_new, gr_new = printed_objective_and_gradients(
                s_new, r_new, idx_i, idx_j, idx_u, q, config.regularization
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
        if rel < config.rel_tolerance:
            break

    components = _connected_components(len(glyphs), idx_i, idx_j)
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
