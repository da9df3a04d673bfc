"""Topological certificates: Gauss linking numbers, tube confinement, Hausdorff distance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .charts import TubeChart


class LinkingError(ValueError):
    """Linking number refused: curves too close or quadrature defect too large."""


def _close_polyline(points: np.ndarray) -> np.ndarray:
    """Validate a closed polyline; returns vertices without the repeated endpoint
    (an endpoint within 1e-9 of the size of the polyline counts as repeated)."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 3:
        raise ValueError("polyline must be an (n, 3) array with n >= 3")
    scale = max(1.0, float(np.max(np.abs(p))))
    if np.linalg.norm(p[0] - p[-1]) <= 1e-9 * scale:
        p = p[:-1]
    seg = np.linalg.norm(np.diff(np.vstack([p, p[:1]]), axis=0), axis=1)
    if np.any(seg == 0.0):
        raise ValueError("polyline has consecutive duplicate vertices")
    return p


class LinkingResult(NamedTuple):
    link: int
    raw: float
    defect: float


def _gauss_midpoint(a: np.ndarray, b: np.ndarray) -> float:
    """Midpoint-rule Gauss double integral over all segment pairs."""
    ta = np.diff(np.vstack([a, a[:1]]), axis=0)
    tb = np.diff(np.vstack([b, b[:1]]), axis=0)
    ma = a + 0.5 * ta
    mb = b + 0.5 * tb
    r = ma[:, None, :] - mb[None, :, :]
    dist3 = np.sum(r * r, axis=-1) ** 1.5
    cross = np.cross(ta[:, None, :], tb[None, :, :])
    triple = np.sum(cross * r, axis=-1)
    return float(np.sum(triple / dist3) / (4.0 * np.pi))


def _refine(p: np.ndarray) -> np.ndarray:
    """Insert segment midpoints (quadrature refinement on the same polygon)."""
    nxt = np.vstack([p[1:], p[:1]])
    out = np.empty((2 * p.shape[0], 3))
    out[0::2] = p
    out[1::2] = 0.5 * (p + nxt)
    return out


def linking_number(curve_a, curve_b, defect_tol: float = 0.1,
                   max_refinements: int = 4) -> LinkingResult:
    """Gauss linking number of two disjoint closed polylines.

    The double integral is evaluated by the segment-pair midpoint rule and the
    polygons are refined until consecutive estimates agree and the value sits
    within defect_tol of an integer; a larger defect raises LinkingError.
    """
    a = _close_polyline(curve_a)
    b = _close_polyline(curve_b)
    seg_scale = max(np.max(np.linalg.norm(np.diff(np.vstack([a, a[:1]]), axis=0), axis=1)),
                    np.max(np.linalg.norm(np.diff(np.vstack([b, b[:1]]), axis=0), axis=1)))
    gap = np.sqrt(np.min(cdist(a, b, "sqeuclidean")))
    if gap <= 10.0 * seg_scale:
        raise LinkingError(
            f"curves too close for a trustworthy quadrature: gap = {gap:.3e} "
            f"<= 10 x segment scale {seg_scale:.3e}")
    val = _gauss_midpoint(a, b)
    for _ in range(max_refinements):
        defect = abs(val - round(val))
        if defect < 0.25 * defect_tol:
            break
        a, b = _refine(a), _refine(b)
        val = _gauss_midpoint(a, b)
    defect = abs(val - round(val))
    if defect >= defect_tol:
        raise LinkingError(
            f"linking quadrature defect {defect:.3g} >= {defect_tol:g}; "
            "refine the input curves")
    return LinkingResult(int(round(val)), val, defect)


@dataclass(frozen=True)
class ConfinementCertificate:
    confined: bool
    winding: int
    margin_rho: float       # min distance of |rho| to the tube wall
    margin_z: float         # min distance of |z| to the strip edge
    witness: np.ndarray | None   # first offending point, when not confined


def tube_confinement(points: np.ndarray, chart: TubeChart,
                     r_max: float | None = None) -> ConfinementCertificate:
    """Certify that a closed polyline stays inside the tube and count its winding.

    The strip half-width is the chart's. The certificate is monotone: shrinking
    the declared radius r_max can only turn confined into not-confined.
    """
    p = _close_polyline(points)
    r_max = chart.radius if r_max is None else float(r_max)
    coords = chart.to_tube_many(p)
    bad = np.isnan(coords[:, 0])
    inside = (~bad) & (np.abs(coords[:, 0]) < r_max) & (np.abs(coords[:, 1]) <= chart.w_half)
    if not np.all(inside):
        witness = p[int(np.argmin(inside))]
        return ConfinementCertificate(False, 0, 0.0, 0.0, witness)
    thetas = coords[:, 2]
    dth = np.diff(np.concatenate([thetas, thetas[:1]]))
    dth = (dth + 0.5 * chart.length) % chart.length - 0.5 * chart.length
    winding = int(round(np.sum(dth) / chart.length))
    return ConfinementCertificate(
        True, winding,
        float(r_max - np.max(np.abs(coords[:, 0]))),
        float(chart.w_half - np.max(np.abs(coords[:, 1]))),
        None)


def _point_segment_distances(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed polyline (vertex-to-segment)."""
    a = poly
    b = np.vstack([poly[1:], poly[:1]])
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    out = np.empty(points.shape[0])
    # blocks of 64 points bound the (64, segments, 3) temporaries; no row's
    # arithmetic depends on the blocking
    for lo in range(0, points.shape[0], 64):
        p = points[lo:lo + 64]
        ap = p[:, None, :] - a[None, :, :]
        tproj = np.clip(np.einsum("pik,ik->pi", ap, ab) / denom, 0.0, 1.0)
        closest = a[None] + tproj[..., None] * ab[None]
        out[lo:lo + 64] = np.min(np.linalg.norm(p[:, None, :] - closest, axis=-1), axis=1)
    return out


def hausdorff_distance(curve_a, curve_b) -> float:
    """Symmetric point-to-polyline Hausdorff distance between closed polylines."""
    a = _close_polyline(curve_a)
    b = _close_polyline(curve_b)
    d_ab = np.max(_point_segment_distances(a, b))
    d_ba = np.max(_point_segment_distances(b, a))
    return float(max(d_ab, d_ba))
