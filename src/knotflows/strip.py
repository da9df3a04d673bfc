"""Strip metric, Cauchy data w = grad(theta) - z grad(z), and the on-strip monodromy.

The ruled strip S(s, t) = c(s) + t e1(s) has first fundamental form
h_ss = |c'(s) + t e1'(s)|^2, h_st = 0, h_tt = 1, and the field w restricted to
the strip reads g(t, s) d/ds - t d/dt with g = 1/h_ss. Its core cycle {t = 0}
is a stable limit cycle of the in-strip flow with multiplier e^{-L}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .charts import TubeChart
from .config import RunConfig

STRIP_BLOCK = 1024    # strip points per field call in strip_residual


@dataclass(frozen=True)
class StripMetric:
    """First fundamental form samples of the ruled strip on an (s, t) grid."""

    h_ss: np.ndarray
    h_st: np.ndarray
    h_tt: np.ndarray

    @property
    def det(self) -> np.ndarray:
        return self.h_ss * self.h_tt - self.h_st**2

    @property
    def g(self) -> np.ndarray:
        """h(grad theta, grad theta) = h^{ss} for the orthogonal strip metric."""
        return self.h_tt / self.det


def strip_metric(chart: TubeChart, s, t) -> StripMetric:
    jet = chart.strip_jet(s, np.asarray(t, dtype=float))
    h_ss = np.sum(jet["S_s"] * jet["S_s"], axis=-1)
    h_st = np.sum(jet["S_s"] * jet["S_t"], axis=-1)
    h_tt = np.sum(jet["S_t"] * jet["S_t"], axis=-1)
    return StripMetric(h_ss, h_st, h_tt)


def _cauchy_vector(jet: dict, t) -> np.ndarray:
    h_ss = np.sum(jet["S_s"] * jet["S_s"], axis=-1, keepdims=True)
    return jet["S_s"] / h_ss - np.asarray(t, dtype=float)[..., None] * jet["e1"]


def cauchy_field(chart: TubeChart, s, t) -> np.ndarray:
    """Ambient vector of w = grad(theta) - z grad(z) on the strip.

    In the adapted chart, grad(theta) = S_s / h_ss and grad(z) = e1 at rho = 0,
    so w has the closed form S_s / h_ss - t e1.
    """
    return _cauchy_vector(chart.strip_jet(s, t), t)


@dataclass(frozen=True)
class CauchyData:
    """Cauchy data for one tube: grid nodes, ambient points and target vectors.

    gamma_s, gamma_t are the components of the 1-form dual to w pulled back to
    the strip; closedness of that form is what makes w a legitimate boundary
    trace of a Beltrami field.
    """

    chart: TubeChart
    s_nodes: np.ndarray
    t_nodes: np.ndarray
    points: np.ndarray    # (ns, nt, 3)
    w: np.ndarray         # (ns, nt, 3)
    normals: np.ndarray   # (ns, nt, 3)
    gamma_s: np.ndarray   # (ns, nt)
    gamma_t: np.ndarray   # (ns, nt)


def build_cauchy_data(chart: TubeChart, config: RunConfig) -> CauchyData:
    ns = max(64, int(round(config.strip_s_per_2pi * chart.length / (2.0 * np.pi))))
    s = chart.length * np.arange(ns) / ns
    t = np.linspace(-chart.w_half, chart.w_half, config.strip_t_nodes)
    nj = chart.normal_jet(s[:, None], t[None, :])
    w = _cauchy_vector(nj, t[None, :])
    gamma_s = np.sum(w * nj["S_s"], axis=-1)
    gamma_t = np.sum(w * nj["e1"], axis=-1)
    return CauchyData(chart, s, t, nj["S"], w, nj["n"], gamma_s, gamma_t)


def strip_residual(field, data: CauchyData) -> float:
    """max |u - w| over one tube's strip grid.

    The field is called on STRIP_BLOCK points at a time, so its (points x
    members) phase tables stay a fixed size however long the tube is.
    """
    x, w = data.points.reshape(-1, 3), data.w.reshape(-1, 3)
    return float(max(
        np.linalg.norm(field(x[lo:lo + STRIP_BLOCK]) - w[lo:lo + STRIP_BLOCK], axis=1).max()
        for lo in range(0, x.shape[0], STRIP_BLOCK)))


def closedness_residual(gamma_s: np.ndarray, gamma_t: np.ndarray,
                        ds: float, dt: float) -> float:
    """Max |d(gamma)| = |d/ds gamma_t - d/dt gamma_s| on the grid.

    Central differences, periodic in s, one-sided at the t edges.
    """
    dgt_ds = (np.roll(gamma_t, -1, axis=0) - np.roll(gamma_t, 1, axis=0)) / (2.0 * ds)
    dgs_dt = np.gradient(gamma_s, dt, axis=1, edge_order=2)
    return float(np.max(np.abs(dgt_ds - dgs_dt)))


def closedness_check(data: CauchyData) -> float:
    ds = data.s_nodes[1] - data.s_nodes[0]
    dt = data.t_nodes[1] - data.t_nodes[0]
    return closedness_residual(data.gamma_s, data.gamma_t, ds, dt)


def lyapunov_values(data: CauchyData) -> np.ndarray:
    """<w, surface gradient of z^2> on the grid; equals -2 t^2 identically.

    The pairing is metric-free: it is w applied to the function t^2, and the
    d/dt component of w is -t by construction.
    """
    # d(t^2) applied to w = g d/ds - t d/dt; the d/dt coefficient of w is
    # gamma contracted with the inverse metric, = -t on the orthonormal ruling
    met = strip_metric(data.chart, data.s_nodes[:, None], data.t_nodes[None, :])
    w_t = (data.gamma_t * met.h_ss - data.gamma_s * met.h_st) / met.det
    return 2.0 * data.t_nodes[None, :] * w_t


def _g_and_derivatives(chart: TubeChart, s: float):
    """g(0, s), dg/dz(0, s), dg/dtheta(0, s) on the core from the strip jet."""
    jet = chart.strip_jet(s, np.array(0.0))
    pos1, de1 = jet["S_s"], jet["de1"]
    h = float(np.sum(pos1 * pos1))
    dh_dt = 2.0 * float(np.sum(pos1 * de1))
    dh_ds = 2.0 * float(np.sum(pos1 * jet["S_ss"]))
    g = 1.0 / h
    return g, -dh_dt / h**2, -dh_ds / h**2


def strip_monodromy(chart: TubeChart):
    """Transverse multiplier of the core cycle of the in-strip field g d/ds - t d/dt.

    Integrates the 2x2 linearization around the cycle (parametrized by theta,
    where d theta / d time = g) and deflates the flow-direction eigenvalue.
    Returns (mu, period). mu < 1: the cycle attracts inside the strip.
    """

    def rhs(theta, y):
        g, dg_dz, dg_dth = _g_and_derivatives(chart, theta)
        m = y[1:].reshape(2, 2)
        jac = np.array([[-1.0, 0.0], [dg_dz, dg_dth]])  # d(zdot, thetadot)/d(z, theta)
        dm = (jac @ m) / g
        return np.concatenate([[1.0 / g], dm.ravel()])

    y0 = np.concatenate([[0.0], np.eye(2).ravel()])
    sol = solve_ivp(rhs, (0.0, chart.length), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=False)
    if not sol.success:
        raise RuntimeError(f"strip monodromy integration failed: {sol.message}")
    period = sol.y[0, -1]
    m = sol.y[1:, -1].reshape(2, 2)
    eig = np.linalg.eigvals(m)
    flow = np.argmin(np.abs(eig - 1.0))
    mu = float(np.real(eig[1 - flow]))
    if not mu < 1.0:
        raise RuntimeError(f"strip cycle not attracting: mu = {mu}")
    return mu, float(period)
