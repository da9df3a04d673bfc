"""Cauchy data w = grad(theta) - z grad(z) on each tube's strip, its closedness,
the fit rows that stand in for the strip grid, and the strip residual of a
field against it.

The ruled strip S(s, t) = c(s) + t e1(s) has first fundamental form
h_ss = |c'(s) + t e1'(s)|^2, h_st = 0, h_tt = 1, so w restricted to the
strip reads g(t, s) d/ds - t d/dt with g = 1/h_ss. The grid is kept as its
rulings: the core point c and direction e1 at each s-node and the t-nodes,
so that a field on the grid is a power series in t per s-node
(BeltramiExpansion.on_rulings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .charts import TubeChart
from .config import RunConfig

# strip points per field call in strip_residual: max(1, STRIP_BLOCK // nt) s-rows
STRIP_BLOCK = 1024
# Gauss nodes in t per s-node of the fit: at 6 the test fixtures' coefficients
# stay within 1.4e-8 relative of the full-grid fit's, at 4 the trefoil's move 1.6e-5
GAUSS_T_NODES = 6


def _cauchy_vector(jet: dict, t) -> np.ndarray:
    """Ambient vector of w = grad(theta) - z grad(z) on the strip: at rho = 0,
    grad(theta) = S_s / h_ss and grad(z) = e1, so w = S_s / h_ss - t e1."""
    h_ss = np.sum(jet["S_s"] * jet["S_s"], axis=-1, keepdims=True)
    return jet["S_s"] / h_ss - np.asarray(t, dtype=float)[..., None] * jet["e1"]


def gauss_rule(n_grid: int):
    """Nodes and weights of the P-node Gauss rule, P = min(n_grid, GAUSS_T_NODES),
    of the discrete measure of n_grid uniform unit-weight nodes on [-1, 1].

    The weights are positive and sum to n_grid, and the rule sums every
    polynomial of degree < 2P as the grid does; for n_grid <= P it is the grid.
    The grid's measure is the discrete Chebyshev (Gram) measure, whose Jacobi
    matrix has a zero diagonal and the closed-form off-diagonal
    k sqrt((n^2 - k^2) / ((n - 1)^2 (4 k^2 - 1))), k = 1..P-1 (Gautschi,
    Orthogonal Polynomials, 2004); its eigenvalues are the nodes and its
    eigenvectors' first components give the weights (Golub & Welsch, Math.
    Comp. 23, 1969).
    """
    p = min(n_grid, GAUSS_T_NODES)
    k = np.arange(1.0, p)
    off = k * np.sqrt((n_grid**2 - k**2) / ((n_grid - 1) ** 2 * (4.0 * k**2 - 1.0)))
    nodes, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(p), off)
    return nodes, n_grid * vecs[0] ** 2


@dataclass(frozen=True)
class CauchyData:
    """Cauchy data for one tube: the strip grid as its rulings core + t e1,
    the target vectors on it, the closedness residual of the 1-form gamma
    dual to w pulled back to the strip, and the rows the fit reads.

    Closedness of gamma is what makes w a legitimate boundary trace of a
    Beltrami field. The fit rows sit at the s-nodes of the grid and the
    Gauss nodes of its t-measure (gauss_rule), each point with the square
    root of its weight, so their weighted sum of squares stands in for the
    sum over the grid, which stays the out-of-sample gate (strip_residual).
    """

    core: np.ndarray              # (ns, 3): c at the s-nodes
    e1: np.ndarray                # (ns, 3): the ruling direction there
    t: np.ndarray                 # (nt,): the grid's t-nodes
    w: np.ndarray                 # (ns, nt, 3)
    closedness: float             # max |d(gamma)| over the grid nodes, in closed form
    fit_points: np.ndarray        # (ns, P, 3) at the Gauss nodes
    fit_w: np.ndarray             # (ns, P, 3)
    fit_sqrt_weight: np.ndarray   # (P,): sqrt of each Gauss node's weight


def build_cauchy_data(chart: TubeChart, config: RunConfig) -> CauchyData:
    """The tube's grid, closedness and fit rows from one strip jet, whose t
    runs over the grid's nt nodes, then the Gauss nodes, then t = 0 (the core).

    gamma = (1 - t a) ds + (a / h - t |e1|^2) dt with a = e1 . S_s and
    h = |S_s|^2, so d(gamma) = d/ds gamma_t - d/dt gamma_s reads off the jet:
    (e1 . S_ss + e1' . S_s) / h - 2 a (S_s . S_ss) / h^2 + a - t e1 . e1'.
    """
    ns = max(64, int(round(config.strip_s_per_2pi * chart.length / (2.0 * np.pi))))
    nt = config.strip_t_nodes
    s = chart.length * np.arange(ns) / ns
    t = np.linspace(-chart.w_half, chart.w_half, nt)
    tau, weight = gauss_rule(nt)
    t_all = np.concatenate([t, chart.w_half * tau, [0.0]])
    jet = chart.strip_jet(s[:, None], t_all[None, :])
    w_all = _cauchy_vector(jet, t_all[None, :])
    s_s, s_ss, e1, de1 = (jet[k][:, :nt] for k in ("S_s", "S_ss", "e1", "de1"))
    h, a = np.sum(s_s * s_s, axis=-1), np.sum(e1 * s_s, axis=-1)
    d_gamma = (np.sum(e1 * s_ss + de1 * s_s, axis=-1) / h
               - 2.0 * a * np.sum(s_s * s_ss, axis=-1) / h**2 + a - t * np.sum(e1 * de1, axis=-1))
    return CauchyData(jet["S"][:, -1].copy(), jet["e1"][:, -1].copy(), t, w_all[:, :nt],
                      float(np.max(np.abs(d_gamma))),
                      jet["S"][:, nt:-1], w_all[:, nt:-1], np.sqrt(weight))


def strip_residual(field, data: CauchyData) -> float:
    """max |u - w| over one tube's strip grid; nan if any node reads nan.

    The field is read along the grid's rulings (BeltramiExpansion.on_rulings),
    max(1, STRIP_BLOCK // nt) s-rows at a time, so its (s-rows x members)
    phase tables stay a fixed size however long the tube is.
    """
    rows = max(1, STRIP_BLOCK // data.t.size)
    return float(np.max([
        np.linalg.norm(field.on_rulings(data.core[lo:lo + rows], data.e1[lo:lo + rows], data.t)
                       - data.w[lo:lo + rows], axis=-1).max()
        for lo in range(0, data.core.shape[0], rows)]))
