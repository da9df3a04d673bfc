"""Ruled strips and tube charts: adapted coordinates (rho, z, theta) around each component.

The strip of a component is S(s, t) = c(s) + t e1(s) with |t| <= w_half; the
chart extends it along the strip normal, X(rho, z, theta) = S(theta, z) + rho n.
theta is arc length along the core and z the ruling parameter, so the strip is
exactly {rho = 0} and the core exactly {rho = 0, z = 0}. The normal is
n = e1 x S_s / |e1 x S_s|, so the chart columns (X_rho, X_z, X_theta) are
right-handed. TubeChart is the only place that builds n or those columns.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .config import RunConfig
from .curves import ArcLengthCurve, EmbeddingError, LinkSpec, resample_arclength
from .framing import FrameModel, frame_transport

EDGE_RTOL = 1e-12   # |t| up to w_half (1 + EDGE_RTOL) is on the strip edge


class TubeChart:
    """Adapted tube coordinates around one link component.

    The chart must lie within the core's reach, radius + w_half <= reach:
    there every point has one nearest core point (Federer 1959), so the chart
    embeds the solid tube and a projection needs one Newton seed per point.
    """

    def __init__(self, frame: FrameModel, radius: float, w_half: float,
                 component_id: int = 0):
        if not 0.0 < w_half <= radius:
            raise ValueError("need 0 < w_half <= radius")
        reach = frame.arc.reach()
        if not radius + w_half <= reach:
            raise ValueError(f"tube beyond the core's reach: radius + w_half = "
                             f"{radius + w_half:.6g} > reach = {reach:.6g}")
        self.frame = frame
        self.radius = float(radius)
        self.w_half = float(w_half)
        self.component_id = int(component_id)
        self.length = frame.length
        self._core_tree = cKDTree(frame.arc.points)

    # strip embedding and derivatives -------------------------------------

    def strip_jet(self, s, t):
        """First and second derivatives of the strip embedding at (s, t).

        s and t broadcast; one call of the frame's truncated series per s
        value gives c, e1 and their first two s-derivatives.
        """
        t = np.asarray(t, dtype=float)[..., None]
        c, e = self.frame.jet(s)
        shape = np.broadcast_shapes(np.shape(s) + (3,), t.shape)
        e1, de1, d2e1 = (np.broadcast_to(e[..., k, :], shape) for k in range(3))
        S, S_s, S_ss = (c[..., k, :] + t * e[..., k, :] for k in range(3))
        return {"S": S, "S_s": S_s, "S_ss": S_ss, "S_t": e1, "S_st": de1,
                "e1": e1, "de1": de1, "d2e1": d2e1}

    def normal_jet(self, s, t):
        """Unit strip normal n with its s- and t-derivatives, and the strip jet."""
        return _normal_jet(self.strip_jet(s, t))

    # chart map -------------------------------------------------------------

    def from_tube(self, rho, z, theta):
        """Ambient point of adapted coordinates (rho, z, theta)."""
        nj = self.normal_jet(theta, z)
        return nj["S"] + np.asarray(rho, dtype=float)[..., None] * nj["n"]

    def to_tube_many(self, xs):
        """Adapted coordinates of (n, 3) points: (n, 3) rows (rho, z, theta).

        A row is nan when its point is not finite or out of chart: its nearest
        core sample is not within the chart box's bound hypot(radius, w_half)
        plus one sample step, the closest-point projection fails or leaves the
        declared strip, or the normal offset reaches the tube radius. A ruling
        coordinate within EDGE_RTOL of w_half past the strip edge reads z = +-w_half.
        """
        return self._to_tube_jet(xs)[0]

    def _to_tube_jet(self, xs):
        """to_tube_many's (n, 3) coordinates and the normal jet at each row's (theta, z).

        One batched projection: one Newton in s per point within the cutoff,
        seeded at its nearest core sample (one KD-tree query). A box point
        (rho, z, theta) lies exactly hypot(rho, z) from c(theta), since n and
        e1 are orthonormal, which sets the cutoff. A chart lies within the
        core's reach, where every point has one nearest core point, so the
        core's other near strands need no seed of their own, and a foot point
        in the box is the one preimage whatever path Newton took to it.
        """
        xs = np.asarray(xs, dtype=float).reshape(-1, 3)
        cutoff = np.hypot(self.radius, self.w_half) + self.length / self.frame.arc.n
        # the tree refuses non-finite points; their rows stay nan
        p = np.flatnonzero(np.isfinite(xs).all(axis=1))
        d, i = self._core_tree.query(xs[p], distance_upper_bound=cutoff)
        p, i = p[d < cutoff], i[d < cutoff]
        s, t, ok = self._newton(xs[p], self.frame.arc.s_nodes[i])
        p, s, t = p[ok], s[ok], t[ok]
        found = np.zeros(len(xs), bool)
        s_pt, t_pt = np.zeros(len(xs)), np.zeros(len(xs))
        found[p], s_pt[p], t_pt[p] = True, s, t
        # a point on the strip edge may project a few ulp of w_half past it;
        # such rows are on the strip, at t = +-w_half
        found &= np.abs(t_pt) <= self.w_half * (1.0 + EDGE_RTOL)
        t_pt = np.clip(t_pt, -self.w_half, self.w_half)
        nj = _normal_jet(self.strip_jet(s_pt, t_pt))
        rho = np.sum((xs - nj["S"]) * nj["n"], axis=1)
        inside = found & (np.abs(rho) < self.radius)
        coords = np.where(inside[:, None], np.column_stack([rho, t_pt, s_pt % self.length]),
                          np.nan)
        return coords, nj

    def _newton(self, x, s):
        """Newton in s toward the closest strip point of each row of (x, s).

        At the closest point x - S is normal to the unit ruling e1, so the
        ruling coordinate is t = (x - c(s)) . e1(s) in closed form and Newton
        runs on g(s) = (x - S) . S_s alone. One strip_jet call at t = 0 per
        iteration serves every row still iterating. Returns (s, t, ok).
        """

        def residual(s, x):
            # t(s), g(s) and dg/ds = g_s + g_t dt/ds, where g_t = dt/ds = (x - S) . e1'
            # for an orthonormal frame
            jet = self.strip_jet(s, 0.0)
            e1, de1 = jet["e1"], jet["de1"]
            t = np.sum((x - jet["S"]) * e1, axis=1)[:, None]
            d = x - (jet["S"] + t * e1)
            S_s, S_ss = jet["S_s"] + t * de1, jet["S_ss"] + t * jet["d2e1"]
            j12 = np.sum(d * de1, axis=1)
            return (t[:, 0], np.sum(d * S_s, axis=1),
                    np.sum(d * S_ss, axis=1) - np.sum(S_s ** 2, axis=1) + j12 ** 2)

        tol = 1e-13 * np.maximum(1.0, np.linalg.norm(x, axis=1))
        t, g, dg = residual(s, x)
        live, ok = np.ones(len(x), bool), np.zeros(len(x), bool)
        for _ in range(40):
            ok |= live & (np.abs(g) < tol)
            live &= ~ok & (dg != 0.0)  # a flat residual fails its row
            a = np.flatnonzero(live)
            if not a.size:
                break
            s[a] -= g[a] / dg[a]
            t[a], g[a], dg[a] = residual(s[a], x[a])
        ok |= live & (np.abs(g) < 1e3 * tol)
        return s, t, ok


def _normal_jet(jet: dict) -> dict:
    """Unit normal n = e1 x S_s / |e1 x S_s| of a strip jet, with n_s and n_t."""
    raw = np.cross(jet["e1"], jet["S_s"])
    raw_s = np.cross(jet["de1"], jet["S_s"]) + np.cross(jet["e1"], jet["S_ss"])
    raw_t = np.cross(jet["e1"], jet["S_st"])
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    n = raw / norm

    def dunit(draw):
        return draw / norm - n * np.sum(n * draw, axis=-1, keepdims=True) / norm

    return {"n": n, "n_s": dunit(raw_s), "n_t": dunit(raw_t), **jet}


def chart_columns(nj: dict, rho):
    """Chart columns (X_rho, X_z, X_theta) at normal offset rho from a normal jet."""
    rho = np.asarray(rho, dtype=float)[..., None]
    return nj["n"], nj["S_t"] + rho * nj["n_t"], nj["S_s"] + rho * nj["n_s"]


def component_gaps(arcs: list[ArcLengthCurve]):
    """Pairwise minimal distances between sampled components; diagonal is inf."""
    a = len(arcs)
    gaps = np.full((a, a), np.inf)
    for i in range(a):
        for j in range(i + 1, a):
            gaps[i, j] = gaps[j, i] = np.min(cKDTree(arcs[j].points).query(arcs[i].points)[0])
    return gaps


def tube_radius(arcs: list[ArcLengthCurve]):
    """Per-component tube radii r_a = 0.5 * min(reach_a, half inter-component gap).

    The closed tubes are pairwise disjoint by construction: r_i <= gap_ij / 4
    for every j, so r_i + r_j <= gap_ij / 2 < gap_ij.
    Raises EmbeddingError when two components come closer than the sampling
    resolution can certify.
    """
    gaps = component_gaps(arcs)
    radii = []
    for i, arc in enumerate(arcs):
        gap = float(np.min(gaps[i]))
        h = arc.length / arc.n
        if gap < 8.0 * h:
            raise EmbeddingError(
                f"components too close to certify disjoint tubes: gap = {gap:.3e}")
        radii.append(0.5 * min(arc.reach(), 0.5 * gap))
    return np.asarray(radii)


def build_charts(link: LinkSpec, config: RunConfig | None = None) -> list[TubeChart]:
    """Arc-length models, frames, radii and charts for every component of a link."""
    config = config or RunConfig()
    arcs = [resample_arclength(c, config.frame_samples) for c in link.components]
    radii = tube_radius(arcs)
    charts = []
    for i, arc in enumerate(arcs):
        frame = frame_transport(arc)
        charts.append(TubeChart(frame, radii[i], config.w_half_factor * radii[i],
                                component_id=i))
    return charts
