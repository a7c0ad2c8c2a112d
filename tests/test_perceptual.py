import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    answer_loop_synth_responses,
    printed_fit,
    printed_objective_and_gradients,
    response_loop_connected_components,
)

from glyphcode import perceptual
from glyphcode.errors import ContractViolation
from glyphcode.perceptual import (
    _connected_components,
    Response,
    SimilarityScores,
    choice_likelihood,
    fit,
    objective_and_gradients,
    select_candidates,
    synth_responses,
)


def test_choice_likelihood_examples():
    assert choice_likelihood(1, 0.3, 0.3, 2.0) == pytest.approx(0.5)
    assert choice_likelihood(1, 0.9, 0.1, 0.0) == pytest.approx(0.5)
    # as printed: positive reliability with s_i > s_j gives p(q=1) < 0.5
    assert choice_likelihood(1, 1.0, 0.0, 1.0) == pytest.approx(1.0 / (1.0 + math.e))
    for q in (0, 1):
        total = choice_likelihood(1, 0.4, 0.7, -3.0) + choice_likelihood(0, 0.4, 0.7, -3.0)
    assert total == pytest.approx(1.0)


def test_response_validation():
    with pytest.raises(ContractViolation):
        Response("a", "a", "u", 1)
    with pytest.raises(ContractViolation):
        Response("a", "b", "u", 2)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    n_g, n_u, n_resp = 6, 4, 60
    idx_i = rng.integers(0, n_g, n_resp)
    idx_j = (idx_i + 1 + rng.integers(0, n_g - 1, n_resp)) % n_g
    idx_u = rng.integers(0, n_u, n_resp)
    q = rng.integers(0, 2, n_resp).astype(float)
    for trial in range(100):
        s = rng.normal(0.5, 0.5, n_g)
        r = rng.normal(0.0, 2.0, n_u)
        _, gs, gr = objective_and_gradients(s, r, idx_i, idx_j, idx_u, q, 1e-6)
        h = 1e-6
        for vec, grad, which in ((s, gs, "s"), (r, gr, "r")):
            p = int(rng.integers(len(vec)))
            plus, minus = vec.copy(), vec.copy()
            plus[p] += h
            minus[p] -= h
            if which == "s":
                vp, _, _ = objective_and_gradients(plus, r, idx_i, idx_j, idx_u, q, 1e-6)
                vm, _, _ = objective_and_gradients(minus, r, idx_i, idx_j, idx_u, q, 1e-6)
            else:
                vp, _, _ = objective_and_gradients(s, plus, idx_i, idx_j, idx_u, q, 1e-6)
                vm, _, _ = objective_and_gradients(s, minus, idx_i, idx_j, idx_u, q, 1e-6)
            fd = (vp - vm) / (2 * h)
            assert grad[p] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_fit_dominance_ordering():
    responses = [Response("A", "B", f"u{i}", 1) for i in range(6)]
    responses += [Response("B", "A", f"u{i}", 0) for i in range(6)]
    scores, rels, _ = fit(responses)
    assert scores.s["A"] > scores.s["B"]
    assert scores.s["A"] == 1.0 and scores.s["B"] == 0.0


def test_fit_normalization_range():
    rng = np.random.default_rng(1)
    glyphs = list("abcde")
    planted = {g: float(rng.uniform(0, 1)) for g in glyphs}
    raters = {f"u{i}": -6.0 for i in range(30)}
    scores, _, info = fit(synth_responses(planted, raters, 20, seed=2))
    vals = list(scores.s.values())
    assert min(vals) == 0.0 and max(vals) == 1.0
    assert info["disconnected_components"] == []


def test_fit_flags_disconnected_components():
    responses = [Response("a", "b", "u", 1), Response("c", "d", "u", 0)]
    _, _, info = fit(responses)
    comps = info["disconnected_components"]
    assert {"a", "b"} in comps and {"c", "d"} in comps


def test_fit_rejects_empty():
    with pytest.raises(ContractViolation):
        fit([])


def test_fit_refuses_a_cap_that_is_not_an_integer():
    responses = [Response("A", "B", "u", 1)]
    for cap in (5.5, "10", True):
        with pytest.raises(ContractViolation, match="^max_iterations must be an integer"):
            fit(responses, max_iterations=cap)
    scores, _, info = fit(responses, max_iterations=0)
    assert info["iterations"] == 0
    assert scores.s == {"A": 0.5, "B": 0.5}


def test_select_candidates_strict():
    scores = SimilarityScores({"a": 0.95, "b": 0.85, "c": 0.84, "d": 0.2})
    assert select_candidates(scores, 0.85) == {"a"}
    assert select_candidates(scores, 0.0) == {"a", "b", "c", "d"}
    assert select_candidates(SimilarityScores({"a": 1.0}), 1.0) == set()


def test_synth_responses_chance_under_zero_reliability():
    planted_s = {f"g{i}": i / 9 for i in range(10)}
    planted_r = {f"u{i}": 0.0 for i in range(50)}
    resp = synth_responses(planted_s, planted_r, questions_per_rater=200, seed=4)
    # zero-reliability raters fail the consistency screen half the time, but
    # survivors still answer at chance
    rate = np.mean([r.q for r in resp])
    assert rate == pytest.approx(0.5, abs=0.02)


def test_synth_responses_deterministic():
    planted_s = {"a": 0.1, "b": 0.9}
    planted_r = {"u": -5.0, "v": -4.0}
    a = synth_responses(planted_s, planted_r, 10, seed=7)
    b = synth_responses(planted_s, planted_r, 10, seed=7)
    assert a == b


def test_fit_monotone_objective():
    rng = np.random.default_rng(2)
    planted_s = {f"g{i}": float(rng.uniform(0, 1)) for i in range(6)}
    planted_r = {f"u{i}": -5.0 for i in range(20)}
    resp = synth_responses(planted_s, planted_r, 12, seed=3)
    # run two fits with different iteration caps: more iterations never
    # increase the objective (monotone under backtracking line search)
    _, _, short = fit(resp, max_iterations=20)
    _, _, longer = fit(resp, max_iterations=400)
    assert longer["objective"] <= short["objective"] + 1e-12


def _printed(*args):
    # the printed form overflows exp in the branch np.where discards
    with np.errstate(over="ignore", invalid="ignore"):
        return printed_objective_and_gradients(*args)


def _objective_cases(rng):
    """Random response sets, and the edge cases of the one-pass form: exp
    underflow (|z| > 745), z == 0, all answers equal, one rater and a
    disconnected comparison graph."""
    for case in range(120):
        n_g, n_u = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        n = int(rng.integers(1, 80))
        idx_i = rng.integers(0, n_g, n)
        idx_j = (idx_i + 1 + rng.integers(0, n_g - 1, n)) % n_g
        idx_u = rng.integers(0, n_u, n)
        q = rng.integers(0, 2, n).astype(float)
        s = rng.normal(0.5, 0.5, n_g)
        r = rng.normal(-4.0, 4.0, n_u)
        kind = case % 6
        if kind == 1:
            r = rng.choice([-1.0, 1.0], n_u) * rng.uniform(800.0, 5000.0, n_u)
            s = rng.choice([0.0, 1.0, 2.0], n_g)
        elif kind == 2:
            s[:] = 0.5  # every z is 0
            r[0] = 0.0
        elif kind == 3:
            q[:] = float(case % 12 == 3)
        elif kind == 4:
            idx_u[:] = 0
        elif kind == 5 and n_g >= 4:
            # glyphs {0, 1} and {2, 3, ...} are never compared
            idx_j = np.where(idx_i < 2, 1 - idx_i, 2 + (idx_i - 1) % (n_g - 2))
        yield s, r, idx_i, idx_j, idx_u, q


def test_objective_matches_printed_oracle():
    rng = np.random.default_rng(5)
    underflow = 0
    for s, r, idx_i, idx_j, idx_u, q in _objective_cases(rng):
        for reg in (0.0, 1e-6):
            args = (s, r, idx_i, idx_j, idx_u, q, reg)
            value, gs, gr = objective_and_gradients(*args)
            want_value, want_gs, want_gr = _printed(*args)
            assert value == want_value
            assert np.array_equal(gs, want_gs) and np.array_equal(gr, want_gr)
        underflow += int((np.abs(r[idx_u] * (s[idx_i] - s[idx_j])) > 745).any())
    assert underflow >= 10


def _response_sets(rng):
    for seed in range(8):
        planted_s = {f"g{i}": float(rng.uniform(0, 1)) for i in range(int(rng.integers(2, 8)))}
        planted_r = {f"u{i}": float(rng.normal(-6.0, 2.0)) for i in range(int(rng.integers(1, 12)))}
        yield synth_responses(planted_s, planted_r, 12, seed=seed)
    yield [Response("A", "B", "u", 1)] * 5  # one rater, every answer the same
    yield [Response("A", "B", f"u{i}", 0) for i in range(4)]
    yield [Response("a", "b", "u", 1), Response("c", "d", "u", 0), Response("d", "e", "v", 1)]


def test_fit_matches_printed_oracle(monkeypatch):
    """Also with the gauge penalty off: the fit and the oracle both read
    the module's ``REGULARIZATION``."""
    rng = np.random.default_rng(6)
    runs = ((2000, perceptual.REGULARIZATION), (7, 0.0))
    for responses in _response_sets(rng):
        for max_iterations, regularization in runs:
            monkeypatch.setattr(perceptual, "REGULARIZATION", regularization)
            with np.errstate(over="ignore", invalid="ignore"):
                want = printed_fit(responses, max_iterations=max_iterations)
            assert fit(responses, max_iterations=max_iterations) == want


@st.composite
def _planted_sets(draw):
    """Planted scores and reliabilities: |r| up to 50 with score gaps up to 20
    puts |z| past exp's overflow at 709, and |r| below 0.5 answers near chance,
    so the control screen rejects raters."""
    n_glyphs = draw(st.integers(2, 6))
    scores = draw(st.lists(st.floats(-10.0, 10.0), min_size=n_glyphs, max_size=n_glyphs))
    reliability = st.floats(-50.0, 50.0) | st.floats(-0.5, 0.5)
    rels = draw(st.lists(reliability, max_size=6))
    planted_s = {f"g{i}": v for i, v in enumerate(scores)}
    planted_r = {f"u{i}": v for i, v in enumerate(rels)}
    return planted_s, planted_r


@settings(max_examples=150, deadline=None)
@given(
    planted=_planted_sets(),
    questions=st.integers(0, 5),
    controls=st.sampled_from([0, 1, 2, 3, 4, 7]),
    seed=st.integers(0, 2**31),
)
def test_synth_responses_matches_answer_loop_oracle(planted, questions, controls, seed):
    """The batched answers are the per-answer loop's, draw for draw."""
    planted_s, planted_r = planted
    got = synth_responses(planted_s, planted_r, questions, seed, control_questions=controls)
    assert got == answer_loop_synth_responses(
        planted_s, planted_r, questions, seed, control_questions=controls
    )


def test_synth_responses_matches_oracle_with_rejected_raters_and_overflow():
    """Chance-level raters fail the control screen, and |z| = 1000 would
    overflow exp in the printed sigmoid; both match the per-answer loop."""
    planted_s = {"a": -10.0, "b": 10.0, "c": 0.0}
    planted_r = {f"u{i}": (0.0 if i % 2 else 50.0 * (-1) ** (i // 2)) for i in range(40)}
    got = synth_responses(planted_s, planted_r, 6, seed=11, control_questions=6)
    assert got == answer_loop_synth_responses(planted_s, planted_r, 6, 11, control_questions=6)
    answered = {resp.rater for resp in got}
    rejected = set(planted_r) - answered
    assert rejected and rejected <= {u for u, v in planted_r.items() if v == 0.0}


def test_synth_responses_refuses_negative_counts():
    with pytest.raises(ContractViolation, match="non-negative"):
        synth_responses({"a": 0.0, "b": 1.0}, {"u": -5.0}, -1)
    with pytest.raises(ContractViolation, match="non-negative"):
        synth_responses({"a": 0.0, "b": 1.0}, {"u": -5.0}, 4, control_questions=-2)


def test_objective_refuses_out_of_range_glyph_index():
    s, r = np.zeros(3), np.full(2, -1.0)
    idx = np.array([0, 1])
    for idx_i, idx_j in ((idx, np.array([1, 3])), (np.array([-1, 0]), idx)):
        with pytest.raises(ContractViolation, match="glyph index"):
            objective_and_gradients(s, r, idx_i, idx_j, np.array([0, 1]), np.ones(2), 1e-6)


def test_connected_components_match_response_loop_oracle():
    """One union per distinct pair gives the per-response union's components,
    in the same order, on sparse graphs with isolated glyphs and repeats."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        n_glyphs, n = int(rng.integers(2, 12)), int(rng.integers(1, 40))
        idx_i = rng.integers(0, n_glyphs, n)
        idx_j = (idx_i + 1 + rng.integers(0, min(n_glyphs - 1, 3), n)) % n_glyphs
        got = _connected_components(n_glyphs, idx_i, idx_j)
        assert got == response_loop_connected_components(n_glyphs, idx_i, idx_j)
