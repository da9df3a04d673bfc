"""Topological certificates: Gauss linking numbers, and tube confinement with
the Hausdorff bound to the core read off the same chart coordinates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .charts import TubeChart

_BLOCK = 256   # rows of every (rows, N) table in the linking kernel


class LinkingError(ValueError):
    """Linking number refused: curves too close or quadrature defect too large."""


def _close_polyline(points: np.ndarray) -> np.ndarray:
    """Validate a closed polyline; returns vertices without the repeated endpoint
    (an endpoint within 1e-9 of the size of the polyline counts as repeated)."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 3:
        raise ValueError("polyline must be an (n, 3) array with n >= 3")
    if not np.isfinite(p).all():
        raise ValueError("polyline has non-finite vertices")
    scale = max(1.0, float(np.max(np.abs(p))))
    if np.linalg.norm(p[0] - p[-1]) <= 1e-9 * scale:
        p = p[:-1]
    if np.any(np.linalg.norm(_tangents(p), axis=1) == 0.0):
        raise ValueError("polyline has consecutive duplicate vertices")
    return p


class LinkingResult(NamedTuple):
    link: int
    raw: float
    defect: float


def _tangents(p: np.ndarray) -> np.ndarray:
    """Segment vectors p[i+1] - p[i] of a closed polyline (the last wraps to p[0])."""
    return np.diff(p, axis=0, append=p[:1])


def _gauss_midpoint(a: np.ndarray, b: np.ndarray) -> float:
    """Midpoint-rule Gauss double integral over all segment pairs, in row blocks:
    with tangents t and midpoints m, (m_a - m_b).(t_a x t_b) equals
    (m_a x t_a).t_b - t_a.(t_b x m_b), two rank-3 products per block."""
    ta, tb = _tangents(a), _tangents(b)
    ma, mb = a + 0.5 * ta, b + 0.5 * tb
    ca, cb = np.cross(ma, ta), np.cross(tb, mb)
    total = 0.0
    for lo in range(0, a.shape[0], _BLOCK):
        d2 = cdist(ma[lo:lo + _BLOCK], mb, "sqeuclidean")
        num = ca[lo:lo + _BLOCK] @ tb.T
        num -= ta[lo:lo + _BLOCK] @ cb.T
        d2 *= np.sqrt(d2)
        total += float(np.sum(num / d2))
    return total / (4.0 * np.pi)


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

    The double integral is evaluated by the segment-pair midpoint rule over
    the polylines in (vertex count, first vertex) order, so swapping the
    arguments changes no bit, and the polygons are refined until consecutive
    estimates agree and the value sits within defect_tol of an integer; a
    larger defect raises LinkingError.
    """
    a, b = _close_polyline(curve_a), _close_polyline(curve_b)
    if (len(b), *b[0]) < (len(a), *a[0]):
        a, b = b, a
    seg_scale = max(np.max(np.linalg.norm(_tangents(p), axis=1)) for p in (a, b))
    gap = np.min(cKDTree(b).query(a)[0])
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
    hausdorff: float        # bound on the Hausdorff distance to the core; inf if none
    witness: np.ndarray | None   # first offending point, when not confined


def tube_confinement(points: np.ndarray, chart: TubeChart) -> ConfinementCertificate:
    """Certify that a closed polyline stays inside the tube, count its winding,
    and bound its Hausdorff distance to the core from the same coordinates.

    The tube radius and strip half-width are the chart's. A chart point
    (rho, z, theta) lies exactly hypot(rho, z) from the core point c(theta),
    since e1 and n are orthonormal. When theta increases at every step, the
    arcs [theta_k, theta_k + dth_k] cover the core, and a chord of an
    arc-length curve of curvature <= 1/reach strays at most dth^2 / (8 reach)
    from its arc; so max hypot(rho, z) + max(dth)^2 / (8 reach) bounds the
    distance both ways.
    It is inf when the polyline leaves the tube or theta steps back.
    """
    p = _close_polyline(points)
    coords = chart.to_tube_many(p)
    inside = ~np.isnan(coords[:, 0])   # a row is nan when out of the tube or strip
    if not np.all(inside):
        witness = p[int(np.argmin(inside))]
        return ConfinementCertificate(False, 0, 0.0, 0.0, float("inf"), witness)
    thetas = coords[:, 2]
    dth = np.diff(np.concatenate([thetas, thetas[:1]]))
    dth = (dth + 0.5 * chart.length) % chart.length - 0.5 * chart.length
    winding = int(round(np.sum(dth) / chart.length))
    hausdorff = float("inf")
    if np.all(dth > 0.0):
        hausdorff = float(np.max(np.hypot(coords[:, 0], coords[:, 1]))
                          + np.max(dth) ** 2 / (8.0 * chart.frame.arc.reach()))
    return ConfinementCertificate(
        True, winding,
        float(chart.radius - np.max(np.abs(coords[:, 0]))),
        float(chart.w_half - np.max(np.abs(coords[:, 1]))),
        hausdorff, None)
