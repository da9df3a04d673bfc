"""The paper's inductive construction and the oracles that check the certifier.

The paper proves its theorem by induction over the tubes: a geometric
error-budget schedule, a projector that lifts Helmholtz scalars to Beltrami
fields, and in-strip dynamics whose core cycle attracts with multiplier
e^{-L}. knotflows replaces the induction with one global fit and certifies
the fitted field directly, so nothing here runs in synthesize or verify, and
no certifier module imports this one. Demos 04 and 05 and acceptance
criteria 1, 9 and 10 check these objects against their closed forms. Two
oracles of the certifier live here too: finite differences of the
eigen-relation (criteria 2 and 10) and the tube-model saddle field, whose
orbit and multipliers are known exactly (criterion 4, demo 04).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.integrate import solve_ivp

from .charts import TubeChart, chart_columns
from .curves import LinkSpec
from .dynamics import OrbitEscape
from .field import BeltramiExpansion, polarization_pair


# error budget ----------------------------------------------------------------
# With sigma = number of multi-indices |alpha| <= s in three variables, the
# per-stage tolerances eps_m = (min eps~) / (7 sigma) * 3^{-m} satisfy
# eps_m < (1/(6 sigma)) min eps~ and sum_{n>m} eps_n = eps_m / 2 < eps_m,
# both strictly.

def multi_index_count(s: int, dim: int = 3) -> int:
    """Number of multi-indices alpha with |alpha| <= s in `dim` variables."""
    if s < 0:
        raise ValueError("order s must be >= 0")
    return comb(s + dim, dim)


@dataclass(frozen=True)
class ErrorBudget:
    """Geometric tolerance schedule of the induction's stages."""

    sigma: int
    eps_tilde: tuple          # per-tube tolerances

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

    def verify(self, n_terms: int = 50) -> bool:
        """Both budget inequalities, strictly, for the first n_terms stages."""
        bound = min(self.eps_tilde) / (6.0 * self.sigma)
        for m in range(1, n_terms + 1):
            if not self.epsilon(m) < bound:
                return False
            if not self.tail(m) < self.epsilon(m):
                return False
        return True


def make_error_budget(eps_tilde, s: int) -> ErrorBudget:
    eps_tilde = tuple(float(e) for e in np.atleast_1d(eps_tilde))
    if any(e <= 0 for e in eps_tilde):
        raise ValueError("tolerances must be positive")
    return ErrorBudget(multi_index_count(s), eps_tilde)


# Beltrami projector ----------------------------------------------------------

@dataclass(frozen=True)
class HelmholtzScalarExpansion:
    """Scalar w(x) = sum_j Re(c_j exp(i lam k_j.x)); solves (Laplace + lam^2) w = 0."""

    lam: float
    k: np.ndarray            # (m, 3) unit directions
    c: np.ndarray            # (m,) complex amplitudes

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.k, dtype=float))
        if np.max(np.abs(np.linalg.norm(k, axis=1) - 1.0)) > 1e-12:
            raise ValueError("wave vectors k must be unit")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c", np.asarray(self.c, dtype=complex))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        ph = np.exp(1j * self.lam * (pts @ self.k.T))
        out = np.real(ph @ self.c)
        return out[0] if single else out


def beltramize(w1: HelmholtzScalarExpansion, w2: HelmholtzScalarExpansion,
               w3: HelmholtzScalarExpansion) -> BeltramiExpansion:
    """The lift v = (curl + lam)(curl w) / (2 lam^2) as exact amplitude algebra.

    The input components must share lam and direction set. On amplitudes the
    lift acts as p -> (-k x (k x p) + i k x p) / 2, a projection: Beltrami
    inputs are fixed, anti-Beltrami inputs are annihilated.
    """
    if not (w1.lam == w2.lam == w3.lam):
        raise ValueError("components must share lambda")
    if w1.k.shape != w2.k.shape or w1.k.shape != w3.k.shape \
            or np.max(np.abs(w1.k - w2.k)) > 0 or np.max(np.abs(w1.k - w3.k)) > 0:
        raise ValueError("components must share the direction set")
    lam = w1.lam
    k = w1.k
    p = np.stack([w1.c, w2.c, w3.c], axis=1)       # (m, 3) complex amplitudes
    kxp = np.cross(np.broadcast_to(k, p.shape).astype(complex), p)
    q = 0.5 * (-np.cross(k.astype(complex), kxp) + 1j * kxp)
    # q satisfies i k x q = q; decompose q = (alpha - i beta)(e + i k x e)
    e, f = polarization_pair(k)
    return BeltramiExpansion(lam, k, e, np.sum(q.real * e, axis=1), np.sum(q.real * f, axis=1))


def to_scalar_components(u: BeltramiExpansion):
    """Cartesian components of a BeltramiExpansion as three scalar expansions."""
    p = (u.alpha - 1j * u.beta)[:, None] * (u.e + 1j * u.f)
    return tuple(HelmholtzScalarExpansion(u.lam, u.k, p[:, i]) for i in range(3))


# in-strip oracle -------------------------------------------------------------
# The Cauchy data w restricted to the strip reads g(t, s) d/ds - t d/dt with
# g = 1/h_ss, h_ss = |S_s|^2; its core cycle {t = 0} attracts with e^{-L}.

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


# finite-difference eigen oracle ----------------------------------------------
# verify bounds curl u - lam u and div u from the member algebra; these sample
# them through the field's values alone, for acceptance criteria 2 and 10.

def fd_curl_divergence(field, points: np.ndarray):
    """Finite-difference curl and divergence checks at the given points.

    Five-point central stencils of step h = 5e-3, truncation O(h^4). That step
    balances h^4 truncation against round-off from summing the expansion; for
    coefficient totals up to ~1e5 and lam near 1 the divergence error stays
    below 1e-8.
    Returns (max relative |curl u - lam u| error, max |div u|). The relative
    error is measured against max(|lam u|, 1e-12) pointwise.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h = 5e-3
    jac = np.empty((pts.shape[0], 3, 3))
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        jac[:, :, j] = (-field(pts + 2 * dx) + 8.0 * field(pts + dx)
                        - 8.0 * field(pts - dx) + field(pts - 2 * dx)) / (12.0 * h)
    curl = np.stack([jac[:, 2, 1] - jac[:, 1, 2],
                     jac[:, 0, 2] - jac[:, 2, 0],
                     jac[:, 1, 0] - jac[:, 0, 1]], axis=1)
    target = field.lam * field(pts)
    scale = np.maximum(np.linalg.norm(target, axis=1), 1e-12)
    rel = np.linalg.norm(curl - target, axis=1) / scale
    div = np.abs(jac[:, 0, 0] + jac[:, 1, 1] + jac[:, 2, 2])
    return float(np.max(rel)), float(np.max(div))


def check_points(link: LinkSpec, n: int, seed: int) -> np.ndarray:
    """Deterministic sample points in the inflated bounding box of the link."""
    rng = np.random.default_rng(seed + 1)
    samples = np.vstack([c.point(np.linspace(0, 2 * np.pi, 64, endpoint=False))
                         for c in link.components])
    lo, hi = samples.min(axis=0) - 0.5, samples.max(axis=0) + 0.5
    return lo + (hi - lo) * rng.random((n, 3))


# tube-model field ------------------------------------------------------------
# The strip dynamics extended to a 3D saddle around the core: the closed-form
# oracle of the orbit pipeline (acceptance criterion 4, demo 04).

class TubeModelField:
    """Pushforward of the model field d/dtheta - z d/dz + rho d/drho of a chart.

    Exact saddle dynamics around the core: period = core length, multipliers
    {e^{-T}, e^{+T}}. Serves as the closed-form oracle for the orbit pipeline.
    jet makes one chart projection for (3,) or (n, 3) points: Du is the
    chart-coordinate derivative of the pushforward, by central differences of
    step 1e-6 in (rho, z, theta), which need no projection, times the inverse
    chart Jacobian. jet_near ignores its centers and returns jet.
    """

    def __init__(self, chart: TubeChart):
        self.chart = chart

    def _coords(self, x):
        coords, nj = self.chart._to_tube_jet(x)
        if np.isnan(coords).any():
            raise OrbitEscape("tube-model field evaluated outside its chart")
        return coords, nj

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        coords, nj = self._coords(x)
        return _model_vector(nj, coords[:, 0], coords[:, 1]).reshape(x.shape)

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        coords, nj = self._coords(x)
        rho, z = coords[:, 0], coords[:, 1]
        h = 1e-6
        q = coords[:, None, :] + h * np.vstack([np.eye(3), -np.eye(3)])
        v = _model_vector(self.chart.normal_jet(q[..., 2], q[..., 1]), q[..., 0], q[..., 1])
        # row i of dv_dq and of cols is the derivative along coordinate i
        dv_dq = (v[:, :3] - v[:, 3:]) / (2.0 * h)
        cols = np.stack(chart_columns(nj, rho), axis=1)
        du = np.linalg.solve(cols, dv_dq).transpose(0, 2, 1)
        return (_model_vector(nj, rho, z).reshape(x.shape),
                du.reshape(x.shape[:-1] + (3, 3)))

    def jet_near(self, centers):
        return self.jet


def _model_vector(nj: dict, rho, z):
    """X_theta - z X_z + rho X_rho at chart coordinates (rho, z, theta of nj)."""
    x_rho, x_z, x_th = chart_columns(nj, rho)
    z = np.asarray(z, dtype=float)[..., None]
    return x_th - z * x_z + np.asarray(rho, dtype=float)[..., None] * x_rho
