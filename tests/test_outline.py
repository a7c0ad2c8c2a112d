import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BroadcastStack, scalar_outline_distance, scale_to_bbox

from glyphcode.errors import ContractViolation, DegenerateGeometryError
from glyphcode.outline import (
    GlyphOutline,
    OutlineStack,
    outline_distance,
    resample_outline,
)

SQUARE = GlyphOutline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def test_outline_validation():
    with pytest.raises(ContractViolation):
        GlyphOutline(np.zeros((2, 2)))
    with pytest.raises(ContractViolation):
        GlyphOutline(np.array([[0.0, np.nan], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ContractViolation):
        GlyphOutline(np.zeros((4, 3)))


def test_resample_identity_square():
    out = resample_outline(SQUARE, 4)
    assert np.allclose(out.vertices, SQUARE.vertices)


def test_resample_square_to_eight():
    # corners plus edge midpoints, in traversal order
    out = resample_outline(SQUARE, 8)
    expected = np.array(
        [
            [0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5],
            [1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [0.0, 0.5],
        ]
    )
    assert np.allclose(out.vertices, expected)


def test_resample_degenerate():
    point = GlyphOutline(np.zeros((3, 2)) + 0.7)
    with pytest.raises(DegenerateGeometryError):
        resample_outline(point, 8)


def test_distance_identity_and_mismatch():
    assert outline_distance(SQUARE, SQUARE) == 0.0
    with pytest.raises(ContractViolation):
        outline_distance(SQUARE, resample_outline(SQUARE, 8))


def test_distance_uniform_scale_cancels():
    doubled = GlyphOutline(SQUARE.vertices * 2.0)
    assert outline_distance(SQUARE, doubled) == pytest.approx(0.0)


def test_distance_single_displaced_vertex():
    # displace an edge midpoint inward so the bounding box stays the same
    f = resample_outline(SQUARE, 8)
    moved = f.vertices.copy()
    moved[1] = moved[1] + np.array([0.3, 0.4])
    u = GlyphOutline(moved)
    assert outline_distance(f, u) == pytest.approx(0.5)
    assert outline_distance(u, f) == pytest.approx(0.5)


def test_scale_to_bbox_degenerate_axis():
    flat = GlyphOutline(np.array([[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]]))
    scaled = scale_to_bbox(flat, SQUARE)
    assert scaled.vertices[:, 0].min() == pytest.approx(0.0)
    assert scaled.vertices[:, 0].max() == pytest.approx(1.0)
    # zero-extent y axis keeps unit scale
    assert np.allclose(np.diff(scaled.vertices[:, 1]), 0.0)
    # the same rule inside the distance: x is stretched onto f's extent and y
    # is only shifted, so the one vertex off f's baseline is 1 away
    f = GlyphOutline(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]]))
    assert outline_distance(f, flat) == pytest.approx(1.0)
    assert outline_distance(f, flat) == pytest.approx(scalar_outline_distance(f, flat))


def _random_stack_cases(rng):
    """Random outlines with the cases the bounding-box rescale special-cases:
    zero-extent axes, uniformly scaled copies and exact matches."""
    for _ in range(60):
        v = int(rng.integers(3, 12))
        base = rng.uniform(-1.0, 1.0, size=(v, 2))
        flat = base.copy()
        flat[:, int(rng.integers(2))] = 0.25
        noisy = [base + rng.normal(0.0, 0.05, size=(v, 2)) for _ in range(3)]
        outlines = [base, base * rng.uniform(0.1, 10.0), base.copy(), flat] + noisy
        rng.shuffle(outlines)
        f = outlines[int(rng.integers(len(outlines)))]
        if rng.random() < 0.5:
            f = f + rng.normal(0.0, 0.01, size=(v, 2))
        yield GlyphOutline(f), [GlyphOutline(u) for u in outlines]


def test_stacked_distance_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    zeros = 0
    for f, outlines in _random_stack_cases(rng):
        got = OutlineStack(outlines).distances(f)
        want = np.array([scalar_outline_distance(f, u) for u in outlines])
        exact = want < 1e-9
        zeros += int(exact.sum())
        assert np.array_equal(got == 0.0, exact)
        assert np.allclose(got[~exact], want[~exact], rtol=1e-12, atol=0.0)
        assert [outline_distance(f, u) for u in outlines] == list(got)
    assert zeros >= 30  # about half the cases observe an outline exactly



def test_batch_distances_match_single_distances():
    rng = np.random.default_rng(13)
    zeros = 0
    for f, outlines in _random_stack_cases(rng):
        stack = OutlineStack(outlines)
        # the stacked outlines themselves (exact matches, a zero-extent axis),
        # f, and noisy copies of each
        batch = outlines + [f] + [
            GlyphOutline(o.vertices + rng.normal(0.0, 0.02, o.vertices.shape)) for o in outlines
        ]
        got = stack.batch_distances(np.stack([o.vertices for o in batch]))
        want = np.stack([stack.distances(o) for o in batch])
        assert got.shape == (len(batch), len(outlines))
        assert np.array_equal(got, want)
        zeros += int((got == 0.0).sum())
    assert zeros >= 60 * 7

def test_per_coordinate_kernel_matches_broadcast_oracle():
    """The per-coordinate rescale gives the broadcast kernel's distances bit
    for bit, past V = 64 too, where each sum runs over more than 128 values
    and numpy's pairwise summation splits it."""
    rng = np.random.default_rng(15)
    zeros = long = 0
    for case in range(300):
        v = int(rng.integers(3, 301)) if case % 2 else int(rng.integers(3, 40))
        unit = float(rng.choice([1e-3, 1.0, 1e3]))
        base = rng.uniform(-1.0, 1.0, size=(v, 2)) * unit
        outlines = [base + rng.normal(0.0, 0.02 * unit, size=(v, 2)) for _ in range(rng.integers(1, 32))]
        outlines.append(base * rng.uniform(0.1, 10.0))
        flat = base.copy()
        flat[:, int(rng.integers(2))] = 0.25 * unit
        outlines.append(flat)
        rng.shuffle(outlines)
        stack = [GlyphOutline(u) for u in outlines]
        picks = rng.integers(len(outlines), size=int(rng.integers(1, 32)))
        observed = np.stack([outlines[int(i)] for i in picks])
        noisy = rng.random(len(picks)) < 0.6
        observed[noisy] += rng.normal(0.0, 0.01 * unit, size=observed[noisy].shape)
        got = OutlineStack(stack).batch_distances(observed)
        assert np.array_equal(got, BroadcastStack(stack).batch_distances(observed))
        zeros += int((got == 0.0).sum())
        long += v > 64
    assert zeros >= 100 and long >= 100


def test_overflowing_distance_is_refused():
    # squares past the float range: no RuntimeWarning escapes and no argmin
    # is taken over inf or NaN
    huge = GlyphOutline(SQUARE.vertices * np.array([[1e306], [-2e306], [3e306], [0.0]]))
    with pytest.raises(ContractViolation, match="overflow"):
        OutlineStack([SQUARE, resample_outline(SQUARE, 4)]).distances(huge)
    with pytest.raises(ContractViolation, match="overflow"):
        OutlineStack([SQUARE]).batch_distances(np.stack([SQUARE.vertices, huge.vertices]))


def test_stack_refuses_mixed_vertex_counts():
    with pytest.raises(ContractViolation):
        OutlineStack([SQUARE, resample_outline(SQUARE, 8)])
    with pytest.raises(ContractViolation):
        OutlineStack([])
    with pytest.raises(ContractViolation):
        OutlineStack([SQUARE]).distances(resample_outline(SQUARE, 8))
    with pytest.raises(ContractViolation):
        OutlineStack([SQUARE]).batch_distances(np.zeros((3, 8, 2)))


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 10_000),
)
def test_distance_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-1.0, 1.0, size=(12, 2))
    if np.ptp(verts[:, 0]) < 1e-6 or np.ptp(verts[:, 1]) < 1e-6:
        return
    f = GlyphOutline(verts)
    u = GlyphOutline(verts * scale)
    assert outline_distance(f, u) == pytest.approx(0.0, abs=1e-9)
