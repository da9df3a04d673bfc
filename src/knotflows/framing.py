"""Rotation-minimizing frames along closed curves, with uniform closure correction."""

from __future__ import annotations

import numpy as np

from .curves import ArcLengthCurve, SpectralSeries


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def double_reflection_transport(points: np.ndarray, tangents: np.ndarray,
                                r0: np.ndarray) -> np.ndarray:
    """Transport the normal vector r0 along a polyline by the double-reflection rule.

    points: (n, 3) vertices, tangents: (n, 3) unit tangents, r0: normal at points[0].
    Returns (n, 3) transported normals. Works on open polylines; closed curves
    append the start point/tangent to measure holonomy.
    """
    points = np.asarray(points, dtype=float)
    tangents = np.asarray(tangents, dtype=float)
    n = points.shape[0]
    r = np.empty((n, 3))
    r[0] = r0 - np.dot(r0, tangents[0]) * tangents[0]
    r[0] /= np.linalg.norm(r[0])
    for i in range(n - 1):
        v1 = points[i + 1] - points[i]
        c1 = np.dot(v1, v1)
        if c1 == 0.0:
            r[i + 1] = r[i]
            continue
        rl = r[i] - (2.0 / c1) * np.dot(v1, r[i]) * v1
        tl = tangents[i] - (2.0 / c1) * np.dot(v1, tangents[i]) * v1
        v2 = tangents[i + 1] - tl
        c2 = np.dot(v2, v2)
        r[i + 1] = rl if c2 == 0.0 else rl - (2.0 / c2) * np.dot(v2, rl) * v2
    return r


def _seed_normal(points: np.ndarray, tangent0: np.ndarray) -> np.ndarray:
    """Deterministic initial normal: radial direction from the centroid, with
    coordinate-axis fallbacks when that is too aligned with the tangent."""
    candidates = [points[0] - points.mean(axis=0),
                  np.array([1.0, 0.0, 0.0]),
                  np.array([0.0, 1.0, 0.0]),
                  np.array([0.0, 0.0, 1.0])]
    for c in candidates:
        w = c - np.dot(c, tangent0) * tangent0
        if np.linalg.norm(w) > 1e-6 * max(np.linalg.norm(c), 1e-30):
            return w / np.linalg.norm(w)
    raise ValueError("could not seed a frame normal")


class FrameModel:
    """Closed rotation-minimizing frame (e1, e2) on an arc-length curve.

    The raw transported frame picks up a holonomy angle around the loop; the
    correction rotates e1 by -holonomy * s / L so the frame closes up, and the
    closed samples, with the positions beside them, are stored as one
    truncated trigonometric series (SpectralSeries) of the (n, 6) samples
    [c | e1]. Positions, frames and their s-derivatives all come from it,
    which keeps every downstream geometric quantity self-consistent.
    """

    def __init__(self, arc: ArcLengthCurve):
        self.arc = arc
        self.length = arc.length
        pts = arc.points
        # node tangents from the node parameters the arc-length model already inverted
        tans = _unit(arc.curve.velocity(arc.t_nodes))
        # transport once around, re-visiting the start point to read the holonomy
        pts_c = np.vstack([pts, pts[:1]])
        tans_c = np.vstack([tans, tans[:1]])
        r = double_reflection_transport(pts_c, tans_c, _seed_normal(pts, tans[0]))
        b = np.cross(tans_c, r)
        self.holonomy = float(np.arctan2(np.dot(r[-1], b[0]), np.dot(r[-1], r[0])))
        phi = -self.holonomy * arc.s_nodes / self.length
        e1 = np.cos(phi)[:, None] * r[:-1] + np.sin(phi)[:, None] * b[:-1]
        # orthonormalize against the exact tangents at the samples
        e1 = e1 - np.sum(e1 * tans, axis=1, keepdims=True) * tans
        e1 = _unit(e1)
        self.series = SpectralSeries(np.hstack([pts, e1]), self.length)

    def jet(self, s):
        """(c, e1) from one series call, each s.shape + (3, 3): [..., d/ds order, xyz]."""
        v = self.series(s)
        return v[..., :3], v[..., 3:]

    def position(self, s, deriv: int = 0) -> np.ndarray:
        return self.jet(s)[0][..., deriv, :]


def frame_transport(arc: ArcLengthCurve) -> FrameModel:
    """Build the closed rotation-minimizing frame of a component."""
    return FrameModel(arc)
