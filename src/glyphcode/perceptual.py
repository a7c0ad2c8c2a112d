"""Perceptual-similarity fitting from two-alternative forced-choice data.

Each response compares two perturbed glyphs against the original; the choice
probability is the logistic Bradley-Terry form

    p(q=1 | i, j, u) = 1 / (1 + exp(r_u * (s_i - s_j)))

implemented exactly as printed, with the rater reliability r_u absorbing the
sign.  Scores and reliabilities minimize the negative log-likelihood by
full-batch gradient descent with a backtracking line search, then the scores
are min-max normalized to [0, 1] and thresholded to select the candidate set.

The objective is evaluated in one pass per point: one exp serves both the
log-likelihood and the sigmoid in its gradient, and one bincount scatters both
glyphs of every response in response order.  A line-search trial evaluates
only the value; the gradients are built from that evaluation's intermediates
for the accepted point alone.  Every value stays bit for bit that of the
printed form evaluated term by term (log-sigmoid and sigmoid separately,
gradients by np.add.at, every trial's gradients computed), which
tests/oracles.py keeps.

The response generator draws each rater's pairs and uniforms in the order of
one question at a time, then computes all choice probabilities at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import ContractViolation
from .util import as_integer, seeded_streams, stable_seed

__all__ = [
    "Response",
    "SimilarityScores",
    "RaterReliabilities",
    "choice_likelihood",
    "fit",
    "objective_and_gradients",
    "select_candidates",
    "synth_responses",
]


@dataclass(frozen=True)
class Response:
    glyph_i: Hashable
    glyph_j: Hashable
    rater: Hashable
    q: int

    def __post_init__(self):
        if self.glyph_i == self.glyph_j:
            raise ContractViolation("a response must compare two distinct glyphs")
        if self.q not in (0, 1):
            raise ContractViolation("q must be 0 or 1")


@dataclass(frozen=True)
class SimilarityScores:
    s: dict[Hashable, float]


@dataclass(frozen=True)
class RaterReliabilities:
    r: dict[Hashable, float]


REL_TOLERANCE = 1e-9  # relative objective decrease at which the fit stops
REGULARIZATION = 1e-6  # weight of the quadratic gauge penalty
INITIAL_STEP = 1.0  # the line search's first step


def choice_likelihood(q: int, s_i: float, s_j: float, r_u: float) -> float:
    """Probability of the observed choice under the printed logistic form."""
    if q not in (0, 1):
        raise ContractViolation("q must be 0 or 1")
    z = r_u * (s_i - s_j)
    # 1/(1+exp(z)) = sigmoid(-z); the complement is sigmoid(z)
    p1 = _sigmoid(-z)
    return float(p1 if q == 1 else 1.0 - p1)


def _sigmoid(z):
    # exp(-|z|) is exp(-z) for z >= 0 and exp(z) below, so each branch gets
    # the operands it had as 1/(1+exp(-z)) and exp(z)/(1+exp(z)), and no exp
    # overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def objective_and_gradients(
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
    idx_ij = np.concatenate([idx_i, idx_j])
    if len(idx_ij) and not (0 <= idx_ij.min() and idx_ij.max() < len(s)):
        raise ContractViolation("glyph index out of range")
    value, gradients = _objective(idx_i, idx_j, idx_u, q, regularization)(s, r)
    return (value, *gradients())


def _objective(idx_i, idx_j, idx_u, q, regularization):
    """The objective over one response set, with its per-response constants
    built once: ``(s, r) -> (value, gradients)``, where ``gradients()`` builds
    ``(gs, gr)`` from that evaluation's intermediates."""
    idx_ij = np.concatenate([idx_i, idx_j])
    sign = 1 - 2 * q  # log p(q) = log sigmoid(sign * z)
    miss = 1 - q

    def evaluate(s, r):
        ru = r.take(idx_u)
        diff = s.take(idx_i) - s.take(idx_j)
        z = ru * diff
        # log sigmoid(x) = min(x, 0) - log1p(exp(-|x|)), and |sign * z| = |z|,
        # so one exp serves the likelihood and the sigmoid below
        e = np.exp(-np.abs(z))
        loglik = np.minimum(sign * z, 0) - np.log1p(e)
        value = -float(loglik.sum())
        value += regularization * (float(s @ s) + float(r @ r))

        def gradients():
            # d(-loglik)/dz = sigmoid(z) - (1 - q)
            dz = np.where(z >= 0, 1.0, e) / (1.0 + e) - miss
            w = dz * ru
            # one bincount over both endpoints adds in np.add.at's order
            gs = np.bincount(idx_ij, np.concatenate([w, -w]), len(s))
            gr = np.bincount(idx_u, dz * diff, len(r))
            gs += 2 * regularization * s
            gr += 2 * regularization * r
            return gs, gr

        return value, gradients

    return evaluate


def _connected_components(n_glyphs: int, idx_i: np.ndarray, idx_j: np.ndarray) -> list[set[int]]:
    parent = list(range(n_glyphs))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # each distinct comparison once: a response set repeats few glyph pairs
    for pair in set((idx_i * n_glyphs + idx_j).tolist()):
        ra, rb = find(pair // n_glyphs), find(pair % n_glyphs)
        if ra != rb:
            parent[ra] = rb
    comps: dict[int, set[int]] = {}
    for g in range(n_glyphs):
        comps.setdefault(find(g), set()).add(g)
    return list(comps.values())


def fit(
    responses: Sequence[Response], max_iterations: int = 2000
) -> tuple[SimilarityScores, RaterReliabilities, dict]:
    """Fit similarity scores and rater reliabilities to 2AFC responses.

    Deterministic given the iteration cap, an integer; the stopping
    tolerance, gauge penalty and first step are the module constants.  The
    objective is non-increasing across accepted steps (backtracking line
    search).  Scores come back min-max normalized to [0, 1] (all 0.5 if they
    are all equal).  A disconnected comparison graph is not an error, but
    the affected components are flagged in the returned info dict since
    scores are only identified within one.
    """
    max_iterations = as_integer(max_iterations, "max_iterations")
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

    objective = _objective(idx_i, idx_j, idx_u, q, REGULARIZATION)
    value, gradients = objective(s, r)
    step = INITIAL_STEP
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # only accepted points need gradients; dropping the closures frees
        # their intermediates before the trials build their own
        gs, gr = gradients()
        gradients = gradients_new = None
        grad_norm_sq = float(gs @ gs + gr @ gr)
        if grad_norm_sq == 0.0:
            break
        accepted = False
        while step > 1e-18:
            s_new = s - step * gs
            r_new = r - step * gr
            v_new, gradients_new = objective(s_new, r_new)
            if v_new <= value - 1e-4 * step * grad_norm_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        rel = (value - v_new) / max(abs(value), 1.0)
        s, r, value, gradients = s_new, r_new, v_new, gradients_new
        step *= 1.3  # let the step grow back after cautious stretches
        if rel < REL_TOLERANCE:
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


def select_candidates(scores: SimilarityScores, threshold: float = 0.85) -> set:
    """Glyphs whose normalized similarity strictly exceeds the threshold."""
    return {g for g, v in scores.s.items() if v > threshold}


def synth_responses(
    planted_s: dict[Hashable, float],
    planted_r: dict[Hashable, float],
    questions_per_rater: int = 16,
    seed: int = 0,
    control_questions: int = 4,
) -> list[Response]:
    """Sample a reproducible 2AFC response set from the planted model.

    Mirrors the study protocol: on top of the real questions every rater
    answers control questions repeating the same pair in both orders, and
    raters with more than one inconsistency among them are rejected.  Each
    rater's draws come from its own seeded stream, so a rejected rater's
    questions are drawn and dropped without moving anyone else's.  A
    question count that is not an integer is refused.
    """
    glyphs = sorted(planted_s, key=repr)
    if len(glyphs) < 2:
        raise ContractViolation("need at least two glyphs")
    for v in list(planted_s.values()) + list(planted_r.values()):
        if not math.isfinite(v):
            raise ContractViolation("planted values must be finite")
    questions_per_rater = as_integer(questions_per_rater, "questions_per_rater")
    control_questions = as_integer(control_questions, "control_questions")
    if questions_per_rater < 0 or control_questions < 0:
        raise ContractViolation("question counts must be non-negative")
    s = np.array([planted_s[g] for g in glyphs], dtype=float)
    raters = sorted(planted_r, key=repr)
    r = np.array([planted_r[u] for u in raters], dtype=float)
    controls = 2 * (control_questions // 2)
    answers = controls + questions_per_rater
    # answer t of a rater compares glyphs a[., t] and b[., t]: each control
    # pair in both orders, then the questions; each pair is drawn by choice
    # and followed by one uniform per answer, as when asked one at a time
    a = np.empty((len(raters), answers), dtype=np.intp)
    b = np.empty_like(a)
    uniforms = np.empty((len(raters), answers))
    # each rater's stream is ``default_rng(stable_seed(seed, "rater", rater))``
    for row, rng in enumerate(seeded_streams(stable_seed(seed, "rater", r) for r in raters)):
        for t in range(0, controls, 2):
            pair = rng.choice(len(glyphs), size=2, replace=False)
            a[row, t : t + 2] = pair
            b[row, t : t + 2] = pair[::-1]
            uniforms[row, t : t + 2] = rng.random(2)
        for t in range(controls, answers):
            a[row, t], b[row, t] = rng.choice(len(glyphs), size=2, replace=False)
            uniforms[row, t] = rng.random()
    q = uniforms < _sigmoid(-(r[:, None] * (s[a] - s[b])))

    # control screening: a consistent rater flips the answer with the order
    inconsistencies = (q[:, 0:controls:2] == q[:, 1:controls:2]).sum(axis=1)
    kept = np.flatnonzero(inconsistencies <= 1)
    a, b, q = (x[kept, controls:].ravel().tolist() for x in (a, b, q))
    u = np.repeat(kept, questions_per_rater).tolist()
    return [
        Response(glyphs[i], glyphs[j], raters[k], int(v)) for i, j, k, v in zip(a, b, u, q)
    ]
