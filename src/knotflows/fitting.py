"""Error budget bookkeeping and the global weighted least-squares fit.

The budget mirrors the inductive tolerance schedule: with sigma = number of
multi-indices |alpha| <= s in three variables, the per-stage tolerances
eps_m = (min eps~) / (7 sigma) * 3^{-m} satisfy eps_m < (1/(6 sigma)) min eps~
and sum_{n>m} eps_n = eps_m / 2 < eps_m, both strictly. At finite scale a
single least-squares solve over all tubes replaces the induction; it weights
each tube by its own tolerance eps~, so the fit does not depend on the order
in which the schedule lists the tubes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg

from .field import BeltramiExpansion
from .strip import CauchyData


def multi_index_count(s: int, dim: int = 3) -> int:
    """Number of multi-indices alpha with |alpha| <= s in `dim` variables."""
    if s < 0:
        raise ValueError("order s must be >= 0")
    return comb(s + dim, dim)


@dataclass(frozen=True)
class ErrorBudget:
    """Geometric tolerance schedule over an ordering of the tubes."""

    sigma: int
    eps_tilde: tuple          # per-tube tolerances, in tube order
    ordering: tuple           # tube indices, position m-1 gets eps_m

    @property
    def base(self) -> float:
        return min(self.eps_tilde) / (7.0 * self.sigma)

    def epsilon(self, m: int) -> float:
        """Stage tolerance eps_m, m >= 1."""
        if m < 1:
            raise ValueError("stages are 1-based")
        return self.base * 3.0**(-m)

    def tail(self, m: int) -> float:
        """Closed-form geometric tail sum_{n > m} eps_n = eps_m / 2."""
        return 0.5 * self.epsilon(m)

    def epsilon_for_tube(self, tube: int) -> float:
        return self.epsilon(self.ordering.index(tube) + 1)

    def verify(self, n_terms: int = 50) -> bool:
        """Both budget inequalities, strictly, for the first n_terms stages."""
        bound = min(self.eps_tilde) / (6.0 * self.sigma)
        for m in range(1, n_terms + 1):
            if not self.epsilon(m) < bound:
                return False
            if not self.tail(m) < self.epsilon(m):
                return False
        return True


def make_error_budget(eps_tilde, s: int, ordering=None) -> ErrorBudget:
    eps_tilde = tuple(float(e) for e in np.atleast_1d(eps_tilde))
    if any(e <= 0 for e in eps_tilde):
        raise ValueError("tolerances must be positive")
    if ordering is None:
        ordering = tuple(range(len(eps_tilde)))
    ordering = tuple(int(i) for i in ordering)
    if sorted(ordering) != list(range(len(eps_tilde))):
        raise ValueError("ordering must be a permutation of the tube indices")
    return ErrorBudget(multi_index_count(s), eps_tilde, ordering)


@dataclass
class FitReport:
    """Outcome of a global fit: per-tube residuals against their budgets."""

    basis_members: int
    n_points: int
    tube_residuals: list        # max |u - w| per tube on the full strip grid
    tube_budgets: list          # per-tube eps~
    success: bool
    condition: float            # singular-value ratio of the stacked system
    rank: int
    weighted_objective: float   # ||W^(1/2)(A c - b)||^2 + ridge ||c||^2
    ridge: float
    advice: str = ""

    def max_residual(self) -> float:
        return max(self.tube_residuals)


def design_matrix(k: np.ndarray, e: np.ndarray, lam: float,
                  points: np.ndarray) -> np.ndarray:
    """Rows: 3 vector components per point; columns: (alpha_j, beta_j) per member."""
    f = np.cross(k, e)
    m = k.shape[0]
    n = points.shape[0]
    a = np.empty((3 * n, 2 * m))
    chunk = max(1, int(2e6) // max(m, 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        phase = lam * (points[lo:hi] @ k.T)
        c, s = np.cos(phase), np.sin(phase)
        re_n = c[:, :, None] * e[None] - s[:, :, None] * f[None]   # (p, m, 3)
        im_n = s[:, :, None] * e[None] + c[:, :, None] * f[None]
        block = np.stack([re_n, im_n], axis=2)                     # (p, m, 2, 3)
        a[3 * lo:3 * hi] = block.transpose(0, 3, 1, 2).reshape((hi - lo) * 3, 2 * m)
    return a


def fit_global(datas: list[CauchyData], budget: ErrorBudget, k: np.ndarray,
               e: np.ndarray, lam: float, ridge: float = 1e-10,
               stride_s: int = 2, stride_t: int = 4):
    """Weighted ridge least squares of the plane-wave basis against all tubes.

    Solved through one orthogonal factorization (LAPACK SVD driver) of the
    ridge-stacked system, never through the normal equations. Residuals are
    evaluated on the full strip grids, not just the fitted subsample; success
    means every tube meets its own eps~ there.
    """
    if len(datas) != len(budget.eps_tilde):
        raise ValueError("budget must list one tolerance per tube")
    pts_list, w_list, weights = [], [], []
    eps_min = min(budget.eps_tilde)
    for i, data in enumerate(datas):
        p = data.points[::stride_s, ::stride_t].reshape(-1, 3)
        w = data.w[::stride_s, ::stride_t].reshape(-1, 3)
        pts_list.append(p)
        w_list.append(w)
        # row weight 1/eps~_i, normalized so the largest row weight is 1
        weights.append(np.full(p.shape[0], eps_min / budget.eps_tilde[i]))
    pts = np.vstack(pts_list)
    targets = np.vstack(w_list)
    row_scale = np.repeat(np.concatenate(weights), 3)

    a = design_matrix(k, e, lam, pts)
    a *= row_scale[:, None]
    b = (targets * np.concatenate(weights)[:, None]).reshape(-1)
    n_coef = a.shape[1]
    if ridge > 0:
        a = np.vstack([a, np.sqrt(ridge) * np.eye(n_coef)])
        b = np.concatenate([b, np.zeros(n_coef)])
    coef, res, rank, sv = scipy.linalg.lstsq(a, b, lapack_driver="gelsd")
    cond = float(sv[0] / sv[-1]) if sv is not None and sv[-1] > 0 else np.inf
    objective = float(np.sum((a @ coef - b) ** 2))

    expansion = BeltramiExpansion(lam, k, e, coef[0::2], coef[1::2])
    tube_res = []
    for data in datas:
        u = expansion(data.points.reshape(-1, 3))
        err = np.linalg.norm(u - data.w.reshape(-1, 3), axis=1)
        tube_res.append(float(np.max(err)))
    budgets = [budget.eps_tilde[i] for i in range(len(datas))]
    success = all(r < b_ for r, b_ in zip(tube_res, budgets))
    advice = "" if success else (
        "strip residual exceeds the budget; enlarge the direction set, "
        "densify the fit grid, or relax eps~")
    report = FitReport(basis_members=k.shape[0], n_points=pts.shape[0],
                       tube_residuals=tube_res, tube_budgets=budgets,
                       success=success, condition=cond, rank=int(rank),
                       weighted_objective=objective, ridge=ridge, advice=advice)
    return expansion, report
