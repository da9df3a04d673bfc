"""Cauchy data w = grad(theta) - z grad(z) on each tube's strip, its closedness,
and the strip residual of a field against it.

The ruled strip S(s, t) = c(s) + t e1(s) has first fundamental form
h_ss = |c'(s) + t e1'(s)|^2, h_st = 0, h_tt = 1, so w restricted to the
strip reads g(t, s) d/ds - t d/dt with g = 1/h_ss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import TubeChart
from .config import RunConfig

STRIP_BLOCK = 1024    # strip points per field call in strip_residual


def _cauchy_vector(jet: dict, t) -> np.ndarray:
    """Ambient vector of w = grad(theta) - z grad(z) on the strip: at rho = 0,
    grad(theta) = S_s / h_ss and grad(z) = e1, so w = S_s / h_ss - t e1."""
    h_ss = np.sum(jet["S_s"] * jet["S_s"], axis=-1, keepdims=True)
    return jet["S_s"] / h_ss - np.asarray(t, dtype=float)[..., None] * jet["e1"]


@dataclass(frozen=True)
class CauchyData:
    """Cauchy data for one tube: ambient strip points, target vectors, and the
    closedness residual of the 1-form gamma dual to w pulled back to the strip.

    Closedness of gamma is what makes w a legitimate boundary trace of a
    Beltrami field.
    """

    points: np.ndarray    # (ns, nt, 3)
    w: np.ndarray         # (ns, nt, 3)
    closedness: float     # max |d(gamma)| on the grid


def build_cauchy_data(chart: TubeChart, config: RunConfig) -> CauchyData:
    ns = max(64, int(round(config.strip_s_per_2pi * chart.length / (2.0 * np.pi))))
    s = chart.length * np.arange(ns) / ns
    t = np.linspace(-chart.w_half, chart.w_half, config.strip_t_nodes)
    jet = chart.strip_jet(s[:, None], t[None, :])
    w = _cauchy_vector(jet, t[None, :])
    gamma_s = np.sum(w * jet["S_s"], axis=-1)
    gamma_t = np.sum(w * jet["e1"], axis=-1)
    return CauchyData(jet["S"], w,
                      closedness_residual(gamma_s, gamma_t, s[1] - s[0], t[1] - t[0]))


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
