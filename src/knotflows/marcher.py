"""Marching solver for *d(beta) = lambda * beta in adapted tube coordinates.

beta = chi d(rho) + a_z dz + a_theta d(theta) on the metric d(rho)^2 +
h_ij dxi^i dxi^j, with (rho, z, theta) right-handed as TubeChart orients it,
so the march solves curl u = lambda u in ambient terms. The d(rho) component
of the equation is an algebraic constraint fixing chi from the in-level curl
of (a_z, a_theta); the two tangential components yield d(a)/d(rho) through a
2x2 metric solve. This is the local-existence step: Cauchy data on a strip
extend to a Beltrami field on a neighbourhood of it. The transverse problem
is ill posed (high theta modes grow like e^{|m| rho}), so the march is
short-range by construction: spectral low-pass filtering in theta, a short
trusted range in rho, and a growth cap that aborts the march.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import TubeChart, chart_columns

GROWTH_CAP = 10.0     # level max-norm over the initial one that aborts a march


class MarchError(RuntimeError):
    """March aborted by the ill-posedness guard."""

    def __init__(self, msg, rho_reached: float, ratio: float):
        super().__init__(msg)
        self.rho_reached = rho_reached
        self.ratio = ratio


def d1_matrix(n: int, h: float) -> np.ndarray:
    """Fourth-order first-derivative matrix, one-sided at the boundaries."""
    if n < 5:
        raise ValueError("need at least 5 nodes for the 4th-order stencil")
    d = np.zeros((n, n))
    for i in range(2, n - 2):
        d[i, i - 2:i + 3] = [1.0, -8.0, 0.0, 8.0, -1.0]
    d[0, :5] = [-25.0, 48.0, -36.0, 16.0, -3.0]
    d[1, :5] = [-3.0, -10.0, 18.0, -6.0, 1.0]
    d[-1, -5:] = [3.0, -16.0, 36.0, -48.0, 25.0]
    d[-2, -5:] = [-1.0, 6.0, -18.0, 10.0, 3.0]
    return d / (12.0 * h)


@dataclass(frozen=True)
class MarchGrid:
    """z nodes (ruling direction) and uniform theta nodes over one period."""

    z_nodes: np.ndarray
    n_theta: int
    theta_period: float

    @property
    def theta_nodes(self) -> np.ndarray:
        return self.theta_period * np.arange(self.n_theta) / self.n_theta

    @cached_property
    def dz(self) -> np.ndarray:
        return d1_matrix(len(self.z_nodes), self.z_nodes[1] - self.z_nodes[0])

    def theta_deriv(self, f: np.ndarray) -> np.ndarray:
        fh = np.fft.rfft(f, axis=-1)
        k = 2j * np.pi / self.theta_period * np.arange(fh.shape[-1])
        if self.n_theta % 2 == 0:
            k = k.copy()
            k[-1] = 0.0
        return np.fft.irfft(fh * k, n=self.n_theta, axis=-1)

    def theta_filter(self, f: np.ndarray) -> np.ndarray:
        """Exponential low-pass cut off at the grid's highest mode, n_theta // 2."""
        fh = np.fft.rfft(f, axis=-1)
        m = np.arange(fh.shape[-1]) / (self.n_theta // 2)
        return np.fft.irfft(fh * np.exp(-36.0 * m**36), n=self.n_theta, axis=-1)


@dataclass(frozen=True)
class MetricLevel:
    """Tangential metric h_ij at one rho level on the (z, theta) grid."""

    grid: MarchGrid
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray

    @property
    def det(self) -> np.ndarray:
        return self.h11 * self.h22 - self.h12**2

    @property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(self.det)

    def inverse(self):
        det = self.det
        return self.h22 / det, -self.h12 / det, self.h11 / det


class FlatMetric:
    """Identity tangential metric; the marched system reduces to a'' = -lambda^2 a."""

    def __init__(self, grid: MarchGrid):
        self.grid = grid
        shape = (len(grid.z_nodes), grid.n_theta)
        self._level = MetricLevel(grid, np.ones(shape), np.zeros(shape), np.ones(shape))

    def at(self, rho: float) -> MetricLevel:
        return self._level


class ChartTubeMetric:
    """Tangential metric of a tube chart, from analytic embedding derivatives."""

    def __init__(self, chart: TubeChart, grid: MarchGrid):
        self.chart = chart
        self.grid = grid
        # (nz, nth) grid: z along rows, theta along columns
        self._nj = chart.normal_jet(grid.theta_nodes[None, :], grid.z_nodes[:, None])

    def at(self, rho: float) -> MetricLevel:
        _, x_z, x_th = chart_columns(self._nj, rho)
        return MetricLevel(self.grid, np.sum(x_z * x_z, axis=-1),
                           np.sum(x_z * x_th, axis=-1), np.sum(x_th * x_th, axis=-1))


def initial_level(grid: MarchGrid) -> np.ndarray:
    """Exact Cauchy data in form components: a_z = -z, a_theta = 1 at rho = 0."""
    nz, nth = len(grid.z_nodes), grid.n_theta
    a = np.empty((2, nz, nth))
    a[0] = -grid.z_nodes[:, None]
    a[1] = 1.0
    return a


def chi_from_constraint(a: np.ndarray, level: MetricLevel, lam: float) -> np.ndarray:
    """chi = |h|^{-1/2} (d_z a_theta - d_theta a_z) / lambda."""
    grid = level.grid
    return (grid.dz @ a[1] - grid.theta_deriv(a[0])) / (lam * level.sqrt_det)


def _rhs(a: np.ndarray, level: MetricLevel, lam: float) -> np.ndarray:
    grid = level.grid
    chi = chi_from_constraint(a, level, lam)
    coef = lam / level.sqrt_det
    da = np.empty_like(a)
    da[0] = grid.dz @ chi + coef * (level.h11 * a[1] - level.h12 * a[0])
    da[1] = grid.theta_deriv(chi) + coef * (level.h12 * a[1] - level.h22 * a[0])
    return da


def rho_step(a: np.ndarray, rho: float, drho: float, metric, lam: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step in rho, then the theta filter."""
    k1 = _rhs(a, metric.at(rho), lam)
    mid = metric.at(rho + 0.5 * drho)
    k2 = _rhs(a + 0.5 * drho * k1, mid, lam)
    k3 = _rhs(a + 0.5 * drho * k2, mid, lam)
    k4 = _rhs(a + drho * k3, metric.at(rho + drho), lam)
    a_new = a + (drho / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return metric.grid.theta_filter(a_new)


@dataclass(frozen=True)
class MarchResult:
    rhos: np.ndarray      # (n_levels,)
    a: np.ndarray         # (n_levels, 2, nz, nth)
    chi: np.ndarray       # (n_levels, nz, nth)
    lam: float


def march(metric, lam: float, rho_max: float, n_steps: int,
          a0: np.ndarray | None = None) -> MarchResult:
    """March Cauchy data on metric.grid from rho = 0 to rho_max (sign gives the side).

    Aborts with MarchError when the level max-norm grows past GROWTH_CAP times
    the initial level: past that point the ill-posed modes dominate and the
    levels carry no information.
    """
    a = initial_level(metric.grid) if a0 is None else np.array(a0, dtype=float)
    drho = rho_max / n_steps
    norm0 = np.max(np.abs(a))
    rhos = [0.0]
    levels = [a]
    chis = [chi_from_constraint(a, metric.at(0.0), lam)]
    for k in range(n_steps):
        rho = k * drho
        a = rho_step(a, rho, drho, metric, lam)
        ratio = np.max(np.abs(a)) / norm0
        if ratio > GROWTH_CAP:
            raise MarchError(
                f"march aborted at rho = {rho + drho:.6g}: level norm grew "
                f"{ratio:.3g}x past the cap {GROWTH_CAP:g}",
                rho_reached=rho, ratio=float(ratio))
        rhos.append(rho + drho)
        levels.append(a)
        chis.append(chi_from_constraint(a, metric.at(rho + drho), lam))
    return MarchResult(np.array(rhos), np.stack(levels), np.stack(chis), lam)


def divergence_residual(result: MarchResult, metric):
    """Divergence |h|^{-1/2} d_mu(|h|^{1/2} v^mu) on the marched levels.

    Returns (max over the central 80 % of z, max over full grid, per-level field).
    The rho derivative uses second-order differences across levels, so at
    least three levels are required.
    """
    if len(result.rhos) < 3:
        raise ValueError("divergence residual needs at least 3 rho levels")
    grid = metric.grid
    f_rho, f_z, f_th, sdets = [], [], [], []
    for i, rho in enumerate(result.rhos):
        level = metric.at(rho)
        hi11, hi12, hi22 = level.inverse()
        a1, a2 = result.a[i, 0], result.a[i, 1]
        v1 = hi11 * a1 + hi12 * a2
        v2 = hi12 * a1 + hi22 * a2
        sd = level.sqrt_det
        f_rho.append(sd * result.chi[i])
        f_z.append(sd * v1)
        f_th.append(sd * v2)
        sdets.append(sd)
    f_rho, f_z, f_th = np.stack(f_rho), np.stack(f_z), np.stack(f_th)
    drho_term = np.gradient(f_rho, result.rhos, axis=0, edge_order=2)
    div = np.empty_like(f_rho)
    for i in range(len(result.rhos)):
        div[i] = (drho_term[i] + grid.dz @ f_z[i] + grid.theta_deriv(f_th[i])) / sdets[i]
    nz = len(grid.z_nodes)
    pad = max(1, int(round(0.5 * (1.0 - 0.8) * nz)))
    trusted = float(np.max(np.abs(div[:, pad:nz - pad, :])))
    return trusted, float(np.max(np.abs(div))), div


def beltrami_residual(result: MarchResult, metric) -> float:
    """Max residual of all three components of *d(beta) - lambda*beta.

    Measured at half-steps with fourth-order interpolation/differentiation in
    rho, so the reported number tracks the scheme's own convergence order.
    """
    lam, grid = result.lam, metric.grid
    worst = 0.0
    for k in range(1, len(result.rhos) - 2):
        h = result.rhos[k + 1] - result.rhos[k]
        rho_m = 0.5 * (result.rhos[k] + result.rhos[k + 1])
        am = (-result.a[k - 1] + 9.0 * result.a[k] + 9.0 * result.a[k + 1]
              - result.a[k + 2]) / 16.0
        dam = (result.a[k - 1] - 27.0 * result.a[k] + 27.0 * result.a[k + 1]
               - result.a[k + 2]) / (24.0 * h)
        chim = (-result.chi[k - 1] + 9.0 * result.chi[k] + 9.0 * result.chi[k + 1]
                - result.chi[k + 2]) / 16.0
        level = metric.at(rho_m)
        # d(rho) component: constraint chi vs interpolated chi
        chi_c = chi_from_constraint(am, level, lam)
        r_rho = lam * np.abs(chi_c - chim)
        # tangential components
        u1 = dam[0] - (grid.dz @ chim)
        u2 = dam[1] - grid.theta_deriv(chim)
        sd = level.sqrt_det
        hi11, hi12, hi22 = level.inverse()
        # dz component: |h|^{1/2} h^{2i}(d_i chi - d_rho a_i) = lam a_1
        r_z = np.abs(sd * (hi12 * (-u1) + hi22 * (-u2)) - lam * am[0])
        # dtheta component: |h|^{1/2} h^{1i}(d_rho a_i - d_i chi) = lam a_2
        r_th = np.abs(sd * (hi11 * u1 + hi12 * u2) - lam * am[1])
        worst = max(worst, float(np.max(r_rho)), float(np.max(r_z)),
                    float(np.max(r_th)))
    return worst
