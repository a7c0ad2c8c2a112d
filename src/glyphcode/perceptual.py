"""Perceptual-similarity fitting from two-alternative forced-choice data.

Each response compares two perturbed glyphs against the original; the choice
probability is the logistic Bradley-Terry form

    p(q=1 | i, j, u) = 1 / (1 + exp(r_u * (s_i - s_j)))

implemented exactly as printed, with the rater reliability r_u absorbing the
sign.  Scores and reliabilities minimize the negative log-likelihood by
full-batch gradient descent with a backtracking line search, then the scores
are min-max normalized to [0, 1] and thresholded to select the candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import ContractViolation
from .util import stable_seed

__all__ = [
    "Response",
    "SimilarityScores",
    "RaterReliabilities",
    "FitConfig",
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


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 2000
    rel_tolerance: float = 1e-9
    regularization: float = 1e-6
    seed: int = 0
    initial_step: float = 1.0


def choice_likelihood(q: int, s_i: float, s_j: float, r_u: float) -> float:
    """Probability of the observed choice under the printed logistic form."""
    if q not in (0, 1):
        raise ContractViolation("q must be 0 or 1")
    z = r_u * (s_i - s_j)
    # 1/(1+exp(z)) = sigmoid(-z); the complement is sigmoid(z)
    p1 = _sigmoid(-z)
    return float(p1 if q == 1 else 1.0 - p1)


def _sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


def _log_sigmoid(z):
    return np.where(z >= 0, -np.log1p(np.exp(-z)), z - np.log1p(np.exp(z)))


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


def _connected_components(n_glyphs: int, idx_i: np.ndarray, idx_j: np.ndarray) -> list[set[int]]:
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
    comps: dict[int, set[int]] = {}
    for g in range(n_glyphs):
        comps.setdefault(find(g), set()).add(g)
    return list(comps.values())


def fit(
    responses: Sequence[Response], config: FitConfig = FitConfig()
) -> tuple[SimilarityScores, RaterReliabilities, dict]:
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

    value, gs, gr = objective_and_gradients(
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
            v_new, gs_new, gr_new = objective_and_gradients(
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
    raters with more than one inconsistency among them are rejected.
    """
    glyphs = sorted(planted_s, key=repr)
    if len(glyphs) < 2:
        raise ContractViolation("need at least two glyphs")
    for v in list(planted_s.values()) + list(planted_r.values()):
        if not math.isfinite(v):
            raise ContractViolation("planted values must be finite")
    out: list[Response] = []
    for rater in sorted(planted_r, key=repr):
        rng = np.random.default_rng(stable_seed(seed, "rater", rater))
        r_u = planted_r[rater]

        def answer(gi, gj) -> int:
            p1 = choice_likelihood(1, planted_s[gi], planted_s[gj], r_u)
            return int(rng.random() < p1)

        # control screening: each control pair is asked in both orders and a
        # consistent rater flips the answer with the order
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
