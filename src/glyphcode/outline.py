"""Glyph outline geometry: closed polylines, arc-length resampling, distances.

Outlines are closed polylines stored as an (V, 2) float array of vertices in
normalized units; the closing edge from the last vertex back to the first is
implicit.  All outlines inside one codebook share a vertex count, fixed by
resampling, so that vertex-wise distances are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolation, DegenerateGeometryError

__all__ = ["GlyphOutline", "OutlineStack", "resample_outline", "outline_distance"]


@dataclass(frozen=True, eq=False)
class GlyphOutline:
    """A closed glyph contour as an ordered vertex polyline."""

    vertices: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ContractViolation("outline vertices must be an (V, 2) array")
        if v.shape[0] < 3:
            raise ContractViolation("outline needs at least 3 vertices")
        if not np.isfinite(v).all():
            raise ContractViolation("outline vertices must be finite")
        object.__setattr__(self, "vertices", v)

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GlyphOutline):
            return NotImplemented
        return self.vertices.shape == other.vertices.shape and bool(
            np.array_equal(self.vertices, other.vertices)
        )


def resample_outline(outline: GlyphOutline, target_count: int) -> GlyphOutline:
    """Resample a closed outline to exactly ``target_count`` vertices.

    Vertices are placed uniformly by arc length along the closed polyline,
    starting from (and preserving) the first vertex.
    """
    if target_count < 3:
        raise ContractViolation("target_count must be >= 3")
    verts = outline.vertices
    closed = np.vstack([verts, verts[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    total = float(seg.sum())
    if total <= 0.0:
        raise DegenerateGeometryError("outline has zero total length")
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(target_count) * (total / target_count)
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg) - 1)
    local = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    pts = closed[idx] + local[:, None] * (closed[idx + 1] - closed[idx])
    return GlyphOutline(pts)


class OutlineStack:
    """Outlines of one vertex count, stacked once for vectorized distances."""

    def __init__(self, outlines: Sequence[GlyphOutline]):
        counts = {o.vertex_count for o in outlines}
        if len(counts) != 1:
            raise ContractViolation(
                f"stacked outlines need one vertex count, got {sorted(counts)}"
            )
        (self.vertex_count,) = counts
        u = np.stack([o.vertices for o in outlines])  # (N, V, 2)
        lo = u.min(axis=1)
        self._centered = u - lo[:, None]
        span = u.max(axis=1) - lo  # (N, 2)
        # a degenerate axis (zero extent) keeps unit scale on that axis
        self._live = span > 0
        self._divisor = np.where(self._live, span, 1.0)

    def distances(self, f: GlyphOutline) -> np.ndarray:
        """:func:`outline_distance` of ``f`` against every stacked outline."""
        return self.batch_distances(f.vertices[None])[0]

    def batch_distances(self, observed: np.ndarray) -> np.ndarray:
        """Distances of B observed vertex arrays, shaped (B, V, 2), against
        every stacked outline: a (B, N) array whose row b is
        ``distances(GlyphOutline(observed[b]))``.  A distance that overflows
        to inf or NaN (vertices near the float range) is refused."""
        if observed.shape[1] != self.vertex_count:
            raise ContractViolation(
                f"vertex count mismatch: {observed.shape[1]} vs {self.vertex_count}"
            )
        lo_f = observed.min(axis=1)  # (B, 2)
        span_f = observed.max(axis=1) - lo_f
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.where(self._live, span_f[:, None] / self._divisor, 1.0)  # (B, N, 2)
            # the rescale runs per coordinate on strided views, so no ufunc
            # loops over the length-2 axis; this (B, N, V, 2) array is the
            # only one of its size and is reused in place
            d = np.empty((len(observed), *self._centered.shape))
            for a in range(2):
                np.multiply(self._centered[..., a], scale[:, :, None, a], out=d[..., a])
                d[..., a] += lo_f[:, None, None, a]
            np.subtract(observed[:, None], d, out=d)
            np.square(d, out=d)
            d = np.sqrt(d.sum(axis=(2, 3)))
        if not np.isfinite(d).all():
            raise ContractViolation("outline distance overflowed; vertices are out of range")
        # identical outlines must register distance 0 exactly so an exact match
        # takes the full probability mass; the rescale above can leave ~1e-16
        d[d < 1e-9] = 0.0
        return d


def outline_distance(f: GlyphOutline, u: GlyphOutline) -> float:
    """Vertex-wise L2 distance between ``f`` and ``u``.

    ``u`` is first scaled so its bounding box matches ``f``'s (an axis of
    zero extent keeps unit scale), then the L2 norm over corresponding vertex
    pairs is returned.  Zero iff the outlines coincide after scaling; uniform
    scaling of ``u`` therefore cancels.
    """
    return float(OutlineStack([u]).distances(f)[0])
