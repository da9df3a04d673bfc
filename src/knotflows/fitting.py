"""The global least-squares fit of the plane-wave basis to every tube's Cauchy data.

At finite scale one least-squares solve over all tubes replaces the paper's
inductive tolerance schedule (paper.ErrorBudget), so the fit takes the one
tolerance eps~ that every tube shares: its rows weigh what the strip grid's
points they stand for weigh, whatever tube they belong to, and the fit does
not depend on the order in which the tubes are listed. The rows are each
tube's Gauss rows (strip.CauchyData.fit_points): across a strip, a row is
nearly polynomial in t, so a few Gauss nodes of the grid's t-measure give
the sum of squares over every grid node. The solve streams the system
through a blocked QR and so holds O(n^2) memory for n coefficients; see
fit_global.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import RunConfig
from .field import BeltramiExpansion
from .strip import CauchyData, strip_residual


@dataclass
class FitReport:
    """Outcome of a global fit: per-tube residuals against their budgets."""

    basis_members: int
    n_points: int               # fitted points (Gauss rows), not strip grid points
    tube_residuals: list        # max |u - w| per tube on the full strip grid
    tube_budgets: list          # eps~, once per tube
    success: bool
    condition: float            # singular-value ratio of the stacked system
    rank: int
    weighted_objective: float   # ||W^(1/2) (A c - b)||^2 + ridge ||c||^2
    ridge: float
    advice: str = ""


def design_matrix(k: np.ndarray, e: np.ndarray, lam: float,
                  points: np.ndarray) -> np.ndarray:
    """Rows: 3 vector components per point; columns: (alpha_j, beta_j) per member;
    Fortran order, for the one block of points a caller passes."""
    f = np.cross(k, e)
    phase = lam * (points @ k.T)
    c, s = np.cos(phase), np.sin(phase)
    a = np.empty((3 * points.shape[0], 2 * k.shape[0]), order="F")
    for d in range(3):
        a[d::3, 0::2] = c * e[:, d] - s * f[:, d]    # Re N_j
        a[d::3, 1::2] = s * e[:, d] + c * f[:, d]    # Im N_j
    return a


def fit_global(datas: list[CauchyData], eps_tilde: float, k: np.ndarray,
               e: np.ndarray, lam: float, ridge: float = RunConfig.ridge):
    """Weighted ridge least squares of the plane-wave basis against all tubes.

    eps_tilde is the one tolerance every tube shares. The rows are each
    tube's fit rows (fit_points, fit_w), three per point, each scaled by its
    point's fit_sqrt_weight: the Gauss rows of strip.build_cauchy_data, or,
    with the grid's points and unit weights, every grid node.
    The ridge-stacked system [W^(1/2) A | W^(1/2) b] is folded, one block of
    about n+1 rows at a time, into its (n+1) x (n+1) triangular factor R
    (LAPACK tpqrt, as in TSQR), so A is never held whole and memory is O(n^2)
    for n coefficients. The LAPACK SVD driver then solves the n x n factor,
    which has the singular values of the stacked system; the normal equations
    are never formed. Success means every tube's residual on its strip grid
    (strip.strip_residual), out of sample for the Gauss rows, is below eps~.
    """
    eps = np.asarray(eps_tilde, dtype=float)
    if eps.ndim != 0 or not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps_tilde must be one finite tolerance > 0, got {eps_tilde!r}")
    eps = float(eps)
    pts = np.vstack([d.fit_points.reshape(-1, 3) for d in datas])
    targets = np.vstack([d.fit_w.reshape(-1, 3) for d in datas])
    sqrt_weight = np.concatenate([np.broadcast_to(d.fit_sqrt_weight, d.fit_points.shape[:-1])
                                  .reshape(-1) for d in datas])

    n_coef = 2 * k.shape[0]
    # R of the ridge rows [sqrt(ridge) I | 0]; the last column carries b
    r = np.zeros((n_coef + 1, n_coef + 1), order="F")
    r[range(n_coef), range(n_coef)] = np.sqrt(ridge)
    step = -(-(n_coef + 1) // 3)    # points per block: about n+1 rows
    for lo in range(0, pts.shape[0], step):
        block = np.empty((3 * len(pts[lo:lo + step]), n_coef + 1), order="F")
        block[:, :n_coef] = design_matrix(k, e, lam, pts[lo:lo + step])
        block[:, n_coef] = targets[lo:lo + step].reshape(-1)
        block *= np.repeat(sqrt_weight[lo:lo + step], 3)[:, None]
        r, _, _, info = scipy.linalg.lapack.dtpqrt(
            0, min(32, n_coef + 1), r, block, overwrite_a=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"tpqrt failed with info {info}")
    r_coef, r_rhs = np.triu(r[:n_coef, :n_coef]), r[:n_coef, n_coef]
    coef, _, rank, sv = scipy.linalg.lstsq(r_coef, r_rhs, lapack_driver="gelsd")
    cond = float(sv[0] / sv[-1]) if sv is not None and sv[-1] > 0 else np.inf
    objective = float(np.sum((r_coef @ coef - r_rhs) ** 2) + r[n_coef, n_coef] ** 2)

    expansion = BeltramiExpansion(lam, k, e, coef[0::2], coef[1::2])
    tube_res = [strip_residual(expansion, data) for data in datas]
    success = all(res < eps for res in tube_res)
    advice = "" if success else (
        "strip residual exceeds the budget; enlarge the direction set, "
        "densify the fit grid, or relax eps~")
    report = FitReport(basis_members=k.shape[0], n_points=pts.shape[0],
                       tube_residuals=tube_res, tube_budgets=[eps] * len(datas),
                       success=success, condition=cond, rank=int(rank),
                       weighted_objective=objective, ridge=ridge, advice=advice)
    return expansion, report
