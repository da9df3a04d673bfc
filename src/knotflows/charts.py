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
from scipy.spatial.distance import cdist

from .config import RunConfig
from .curves import ArcLengthCurve, EmbeddingError, LinkSpec, resample_arclength
from .framing import FrameModel, frame_transport

# points per core-distance block of a projection; bounds its (block, samples) temporaries
_BLOCK = 256


class TubeChart:
    """Adapted tube coordinates around one link component."""

    def __init__(self, frame: FrameModel, radius: float, w_half: float,
                 component_id: int = 0):
        if not 0.0 < w_half <= radius:
            raise ValueError("need 0 < w_half <= radius")
        self.frame = frame
        self.radius = float(radius)
        self.w_half = float(w_half)
        self.component_id = int(component_id)
        self.length = frame.length

    # strip embedding and derivatives -------------------------------------

    def strip_jet(self, s, t):
        """First and second derivatives of the strip embedding at (s, t).

        s and t broadcast; one series evaluation per s value gives c, e1 and
        their first two s-derivatives.
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

        A row is nan when its point is out of chart: the closest-point
        projection leaves the declared strip, the normal offset reaches the
        tube radius, or two distant sheet candidates are equally near. Core
        samples farther than radius + 4 w_half (the t-clip) plus one sample
        step are not candidates.
        """
        return self._to_tube_jet(xs)[0]

    def _to_tube_jet(self, xs):
        """to_tube_many's (n, 3) coordinates and the normal jet at each row's (theta, z).

        One batched projection: each point's candidates are the cyclic local
        minima of its core distance within reach, at most the 4 nearest, and
        one damped Newton runs on every (point, candidate) pair at once.
        """
        xs = np.asarray(xs, dtype=float).reshape(-1, 3)
        pts, e1s = self.frame.arc.points, self.frame.e1_samples
        reach = self.radius + 4.0 * self.w_half + self.length / len(pts)
        rows, cols = [np.empty(0, int)], [np.empty(0, int)]
        for lo in range(0, len(xs), _BLOCK):
            d2 = cdist(xs[lo:lo + _BLOCK], pts, "sqeuclidean")
            is_min = ((d2 <= np.roll(d2, 1, axis=1)) & (d2 <= np.roll(d2, -1, axis=1))
                      & (d2 <= reach**2))
            r, c = np.nonzero(is_min)
            order = np.lexsort((d2[r, c], r))  # by point, then nearest first
            r, c = r[order], c[order]
            nearest = np.arange(len(r)) - np.searchsorted(r, r) < 4
            rows.append(lo + r[nearest])
            cols.append(c[nearest])
        p, i = np.concatenate(rows), np.concatenate(cols)
        x = xs[p]
        t0 = np.clip(np.sum((x - pts[i]) * e1s[i], axis=1), -self.w_half, self.w_half)
        s, t, dist, ok = self._newton(x, self.frame.arc.s_nodes[i], t0)
        theta = s % self.length
        order = np.lexsort((t, theta, dist, p))  # per point by (dist, theta, t)
        order = order[ok[order]]
        p, s, t, dist, theta = (v[order] for v in (p, s, t, dist, theta))
        first = np.flatnonzero(np.diff(p, prepend=-1))
        b = first[np.searchsorted(p[first], p)]  # each pair's best pair
        ds = np.abs(theta - theta[b])
        same = ((np.minimum(ds, self.length - ds) < 1e-6 * self.length)
                & (np.abs(t - t[b]) < 1e-6 * max(self.w_half, 1.0)))
        # ambiguous: a distinct sheet as near as the best one
        rival = p[~same & (dist <= dist[b] * (1.0 + 1e-9) + 1e-12)]
        found = np.isin(np.arange(len(xs)), np.setdiff1d(p[first], rival))
        s_pt, t_pt = np.zeros(len(xs)), np.zeros(len(xs))
        s_pt[p[first]], t_pt[p[first]] = s[first], t[first]
        nj = _normal_jet(self.strip_jet(s_pt, t_pt))
        rho = np.sum((xs - nj["S"]) * nj["n"], axis=1)
        inside = found & (np.abs(t_pt) <= self.w_half) & (np.abs(rho) < self.radius)
        coords = np.where(inside[:, None], np.column_stack([rho, t_pt, s_pt % self.length]),
                          np.nan)
        return coords, nj

    def _newton(self, x, s, t):
        """Damped Newton toward the closest strip point of each row of (x, s, t).

        One strip_jet call per trial serves every pair still iterating.
        Returns (s, t, |x - S(s, t)|, ok).
        """

        def residual(s, t, x):
            # gradient f of |x - S|^2 / 2 in (s, t), its Jacobian's (1,1) and
            # (1,2) entries (the (2,2) entry is -1), and |x - S|
            jet = self.strip_jet(s, t)
            d = x - jet["S"]
            dot = {k: np.sum(d * jet[k], axis=1) for k in ("S_s", "e1", "S_ss", "de1")}
            return (np.column_stack([dot["S_s"], dot["e1"]]),
                    np.column_stack([dot["S_ss"] - np.sum(jet["S_s"] ** 2, axis=1),
                                     dot["de1"]]),
                    np.linalg.norm(d, axis=1))

        tol = 1e-13 * np.maximum(1.0, np.linalg.norm(x, axis=1))
        f, jac, dist = residual(s, t, x)
        live, ok = np.ones(len(x), bool), np.zeros(len(x), bool)
        for it in range(40):
            norm_f = np.linalg.norm(f, axis=1)
            ok |= live & (norm_f < tol)
            det = -jac[:, 0] - jac[:, 1] ** 2
            live &= ~ok & (det != 0.0)  # a singular Jacobian fails its pair
            a = np.flatnonzero(live)
            if not a.size:
                break
            # the step solves [[j11, j12], [j12, -1]] step = -f
            step_s = (f[a, 0] + jac[a, 1] * f[a, 1]) / det[a]
            step_t = (jac[a, 1] * f[a, 0] - jac[a, 0] * f[a, 1]) / det[a]
            s0, t0, lam = s[a], t[a], 1.0
            for _ in range(8):
                s[a] = s0 + lam * step_s
                t[a] = np.clip(t0 + lam * step_t, -4.0 * self.w_half, 4.0 * self.w_half)
                f[a], jac[a], dist[a] = residual(s[a], t[a], x[a])
                # the first step is always taken; later ones must not increase |f|
                worse = ~(np.linalg.norm(f[a], axis=1) <= norm_f[a]) & (it > 0)
                a, s0, t0, step_s, step_t = (v[worse] for v in (a, s0, t0, step_s, step_t))
                if not a.size:
                    break
                lam *= 0.5
        ok |= live & (np.linalg.norm(f, axis=1) < 1e3 * tol)
        return s, t, dist, ok


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
            d = np.sqrt(np.min(cdist(arcs[i].points, arcs[j].points, "sqeuclidean")))
            gaps[i, j] = gaps[j, i] = d
    return gaps


def tube_radius(arcs: list[ArcLengthCurve], safety: float = 0.5):
    """Per-component tube radii r_a = safety * min(reach_a, half inter-component gap).

    Raises EmbeddingError when two components come closer than the sampling
    resolution can certify.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError("safety must lie in (0, 1)")
    gaps = component_gaps(arcs)
    radii = []
    for i, arc in enumerate(arcs):
        gap = float(np.min(gaps[i]))
        h = arc.length / arc.n
        if gap < 8.0 * h:
            raise EmbeddingError(
                f"components too close to certify disjoint tubes: gap = {gap:.3e}")
        radii.append(safety * min(arc.reach(), 0.5 * gap))
    radii = np.asarray(radii)
    # sampled certificate that the closed tubes are pairwise disjoint
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if gaps[i, j] <= radii[i] + radii[j]:
                raise EmbeddingError(
                    f"tubes of components {i} and {j} overlap: "
                    f"gap {gaps[i, j]:.3e} <= r_i + r_j = {radii[i] + radii[j]:.3e}")
    return radii


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
