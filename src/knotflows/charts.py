"""Ruled strips and tube charts: adapted coordinates (rho, z, theta) around each component.

The strip of a component is S(s, t) = c(s) + t e1(s) with |t| <= w_half; the
chart extends it along the strip normal, X(rho, z, theta) = S(theta, z) + rho n.
theta is arc length along the core and z the ruling parameter, so the strip is
exactly {rho = 0} and the core exactly {rho = 0, z = 0}. The normal is
n = e1 x S_s / |e1 x S_s|, so the chart columns (X_rho, X_z, X_theta) are
right-handed. TubeChart is the only place that builds n or those columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .config import RunConfig
from .curves import ArcLengthCurve, EmbeddingError, LinkSpec, resample_arclength
from .framing import FrameModel, frame_transport


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

    def strip_point(self, s, t):
        c, e = self.frame.jet(s)
        return c[..., 0, :] + np.asarray(t, dtype=float)[..., None] * e[..., 0, :]

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

    def normal(self, s, t):
        return _normal_jet(self.strip_jet(s, t))["n"]

    def normal_jet(self, s, t):
        """Unit strip normal n with its s- and t-derivatives, and the strip jet."""
        return _normal_jet(self.strip_jet(s, t))

    # chart map -------------------------------------------------------------

    def from_tube(self, rho, z, theta):
        """Ambient point of adapted coordinates (rho, z, theta)."""
        nj = self.normal_jet(theta, z)
        return nj["S"] + np.asarray(rho, dtype=float)[..., None] * nj["n"]

    def chart_jacobian(self, rho, z, theta):
        """Columns (X_rho, X_z, X_theta) of the chart differential."""
        return chart_columns(self.normal_jet(theta, z), rho)

    def _project(self, x, s0, t0):
        """Newton for the closest strip point; returns (s, t, jet at (s, t), ok)."""

        def residual(s, t):
            jet = self.strip_jet(s, np.array(t))
            d = x - jet["S"]
            return jet, d, np.array([np.dot(d, jet["S_s"]), np.dot(d, jet["e1"])])

        s, t = float(s0), float(t0)
        tol = 1e-13 * max(1.0, float(np.linalg.norm(x)))
        jet, d, f = residual(s, t)
        for it in range(40):
            if np.linalg.norm(f) < tol:
                return s % self.length, t, jet, True
            j11 = -np.dot(jet["S_s"], jet["S_s"]) + np.dot(d, jet["S_ss"])
            j12 = np.dot(d, jet["de1"])
            jac = np.array([[j11, j12], [j12, -1.0]])
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                return s % self.length, t, jet, False
            lam = 1.0
            for _ in range(8):
                s_new, t_new = s + lam * step[0], t + lam * step[1]
                t_new = float(np.clip(t_new, -4.0 * self.w_half, 4.0 * self.w_half))
                jet_new, d_new, f_new = residual(s_new, t_new)
                # the first step is always taken; later ones must not increase |f|
                if it == 0 or np.linalg.norm(f_new) <= np.linalg.norm(f):
                    break
                lam *= 0.5
            s, t, jet, d, f = s_new, t_new, jet_new, d_new, f_new
        return s % self.length, t, jet, bool(np.linalg.norm(f) < 1e3 * tol)

    def to_tube(self, x):
        """Adapted coordinates (rho, z, theta) of an ambient point.

        Returns None when the point is out of chart: the closest-point
        projection leaves the declared strip, the normal offset exceeds the
        tube radius, or two distant sheet candidates are equally near. Core
        samples farther than radius + 4 w_half (the t-clip) plus one sample
        step are not candidates.
        """
        found = self._to_tube_jet(x)
        return None if found is None else found[:3]

    def _to_tube_jet(self, x):
        """to_tube's (rho, z, theta) followed by the normal jet at (theta, z)."""
        x = np.asarray(x, dtype=float)
        pts = self.frame.arc.points
        d2 = np.sum((pts - x) ** 2, axis=1)
        reach = self.radius + 4.0 * self.w_half + self.length / len(pts)
        is_min = (d2 <= np.roll(d2, 1)) & (d2 <= np.roll(d2, -1)) & (d2 <= reach**2)
        cand = np.flatnonzero(is_min)
        cand = cand[np.argsort(d2[cand])][:4]
        sols = []
        for i in cand:
            t0 = float(np.clip(np.dot(x - pts[i], self.frame.e1_samples[i]),
                               -self.w_half, self.w_half))
            s, t, jet, ok = self._project(x, self.frame.arc.s_nodes[i], t0)
            if ok:
                sols.append((float(np.linalg.norm(x - jet["S"])), s, t, jet))
        if not sols:
            return None
        sols.sort(key=lambda sol: sol[:3])
        dist, s, t, jet = sols[0]
        for d2_, s2, t2, _ in sols[1:]:
            same = (min(abs(s2 - s), self.length - abs(s2 - s)) < 1e-6 * self.length
                    and abs(t2 - t) < 1e-6 * max(self.w_half, 1.0))
            if not same and d2_ <= dist * (1.0 + 1e-9) + 1e-12:
                return None  # ambiguous: two equally near sheets
        if abs(t) > self.w_half:
            return None
        nj = _normal_jet(jet)
        rho = float(np.dot(x - jet["S"], nj["n"]))
        if abs(rho) >= self.radius:
            return None
        return rho, float(t), float(s), nj

    def to_tube_many(self, xs):
        """Vector version of to_tube: (n,3) -> (n,3) array with nan rows when out of chart."""
        out = np.full((len(xs), 3), np.nan)
        for i, x in enumerate(xs):
            r = self.to_tube(x)
            if r is not None:
                out[i] = r
        return out


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
