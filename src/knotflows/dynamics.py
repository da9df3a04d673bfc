"""Stream-line integration, periodic orbits, monodromy.

The periodic orbits of interest are saddles: one Floquet multiplier inside the
unit circle, one outside, product one. Orbits are located by damped Newton on
a multiple-shooting system (segment closures plus a phase condition on the
first node). Each shoot integrates all m segments as one ODE. The shoot that
closes the system is the orbit's one integration: its dense interpolant gives
the orbit samples, and its segment transfer matrices give a segmented
monodromy product whose determinant, and with it the stable multiplier,
stays resolvable even when e^{T} is large.

Fields are callables x -> u(x) on (3,) or (n, 3) points. A shoot's variational
flow also needs field.jet_near(nodes) -> (x -> (u(x), Du(x))) for (m, 3)
points whose row i stays near nodes[i]: each right-hand side is one call of it
on all m rows and no other field call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag

from .charts import TubeChart

CLOSURE_TOL = 1e-9    # max |shooting residual| required of a refined orbit


class DynamicsError(RuntimeError):
    """An orbit could not be integrated, refined or given its Floquet data."""


class IntegrationError(DynamicsError):
    """The ODE solver stopped before the end of its interval."""


class OrbitEscape(DynamicsError):
    """An iterate left the tube."""


class NewtonFailure(DynamicsError):
    """The shooting Newton did not close the orbit."""


class MonodromyOverflow(DynamicsError):
    """The monodromy product of an orbit leaves float64's range: it is not
    finite, or every eigenvalue but the flow's underflows to 0."""


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    x: np.ndarray


def integrate(field, x0, t_end: float, rtol: float = 1e-10, atol: float = 1e-12,
              n_samples: int = 1024) -> Trajectory:
    """Flow x' = u(x) from x0 over [0, t_end] with dense output, sampled at
    n_samples >= 2 uniform times from 0 to t_end."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")

    def rhs(t, y):
        return field(y)

    sol = solve_ivp(rhs, (0.0, t_end), np.asarray(x0, dtype=float), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    ts = np.linspace(0.0, t_end, n_samples)
    return Trajectory(ts, sol.sol(ts).T)


@dataclass
class PeriodicOrbit:
    points: np.ndarray          # (n, 3) samples x(kT/n), k = 0..n-1, x(0) first
    period: float
    closure_residual: float
    newton_iterations: int
    nodes: np.ndarray           # (m, 3) nodes of the closing shoot, nodes[0] = x(0)
    transfers: np.ndarray       # (m, 3, 3) transfer matrix of each segment, T/m long


@dataclass
class FloquetData:
    """Floquet data from segment factors M_k; flow_eigen_residual is
    max_k |M_k u(x_k) - u(x_{k+1})| / |u(x_{k+1})|, per segment because the
    assembled M(T) amplifies rounding by e^{T}."""

    det: float                  # from the segmented product, = 1 for div-free fields
    multipliers: tuple          # (mu_unstable, mu_stable) after flow deflation
    flow_eigen_residual: float  # worst per-segment flow transport error
    classification: str         # hyperbolic_saddle | elliptic | indeterminate
    margin: float               # min distance of the multipliers from |mu| = 1


def refine_orbit(field, chart: TubeChart, rtol: float = 1e-10, atol: float = 1e-12,
                 closure_tol: float = CLOSURE_TOL, max_iter: int = 30,
                 n_samples: int = 1024) -> PeriodicOrbit:
    """Newton-refine the periodic orbit of `field` near the core of `chart`.

    The seed is m core points at exact arc steps L/m, rolled so that the
    fastest is node 0, and the period guess sum (L/m)/|u(node_i)|: one frame
    call and one field call on the m nodes. Newton acts on m segment closures
    plus the phase condition u(anchor) . (x_0 - anchor) = 0 at that fastest
    node, with the period unknown. Segments are short enough that each
    transfer matrix stays O(e), which keeps the system solvable when e^{T}
    dwarfs the closure tolerance (a single return map amplifies seed error by
    the unstable multiplier, kicking the first return out of the fitted
    neighborhood). Segment Jacobians come from the analytic variational
    equation. Iterates that leave the tube raise OrbitEscape.

    The closing shoot is the orbit's only integration: its nodes and transfer
    matrices are returned for `monodromy`, and the n_samples points at times
    kT/n are read from its dense interpolant.
    """
    # keep per-segment stretching e^{T/m} modest even for cores hundreds long
    m = int(np.clip(np.ceil(0.5 * chart.length), 8, 64))
    # nodes at s_i = i L / m exactly: equal segments, so a seed on the orbit closes
    nodes = chart.frame.position(chart.length * np.arange(m) / m)
    us = field(nodes)
    speeds = np.linalg.norm(us, axis=1)
    first = int(np.argmax(speeds))
    nodes = np.roll(nodes, -first, axis=0)
    anchor, u_anchor = nodes[0], us[first]
    period = float(np.sum(chart.length / m / speeds))
    t_cap = 4.0 * chart.length / max(np.min(speeds), 1e-12)

    def shoot(nodes, period):
        ys, mats, sol = _shoot(field, nodes, period / m, rtol, atol)
        f = np.append((ys - np.roll(nodes, -1, axis=0)).ravel(),
                      np.dot(u_anchor, nodes[0] - anchor))
        return f, ys, mats, sol

    f, ys, mats, sol = shoot(nodes, period)
    res = float(np.max(np.abs(f)))
    it = 0
    while not res < closure_tol:
        if it == max_iter:
            raise NewtonFailure(f"shooting system not closed after {max_iter} iterations")
        jac = np.zeros((3 * m + 1, 3 * m + 1))
        jac[:3 * m, :3 * m] = block_diag(*mats) - np.roll(np.eye(3 * m), 3, axis=1)
        jac[:3 * m, 3 * m] = (field(ys) / m).ravel()
        jac[3 * m, 0:3] = u_anchor
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise NewtonFailure(f"singular shooting Jacobian: {exc}")
        # clip oversized steps to a fraction of the tube radius
        biggest = np.max(np.linalg.norm(step[:3 * m].reshape(m, 3), axis=1))
        if biggest > 0.25 * chart.radius:
            step *= 0.25 * chart.radius / biggest
        scale = 1.0
        for _ in range(4):
            new_nodes = nodes + scale * step[:3 * m].reshape(m, 3)
            new_period = period + scale * step[3 * m]
            if not 0.0 < new_period < t_cap:
                scale *= 0.5
                continue
            shot = shoot(new_nodes, new_period)
            res_new = float(np.max(np.abs(shot[0])))
            if res_new < res:
                break
            scale *= 0.5
        else:
            raise NewtonFailure(f"shooting Newton stalled at iteration {it}")
        nodes, period = new_nodes, new_period
        f, ys, mats, sol = shot
        res = res_new
        if np.isnan(chart.to_tube_many(nodes)).any():
            raise OrbitEscape(f"Newton iterate left the tube at iteration {it}")
        it += 1

    # sample k lies on segment k*m // n at local time kT/n - seg T/m; sampling
    # segment by segment keeps the e^{T} growth of a full-period flow out
    seg, local = np.divmod(np.arange(n_samples) * m, n_samples)
    times, inverse = np.unique(local, return_inverse=True)
    pts = sol(period * times / (m * n_samples)).reshape(m, 12, -1)[seg, :3, inverse]
    return PeriodicOrbit(points=pts, period=period, closure_residual=res,
                         newton_iterations=it, nodes=nodes, transfers=mats)


def _shoot(field, nodes, tau, rtol, atol):
    """Integrate state + variational matrix over [0, tau] from (nodes[i], I),
    all m segments as one ODE; returns the (m, 3) ends, the (m, 3, 3) transfer
    matrices and the dense interpolant. Tolerances scaled by 1/sqrt(m) make
    the batch's RMS error norm bound each segment's own norm.
    """
    m = len(nodes)
    jet = field.jet_near(nodes)

    def rhs(t, y):
        y = y.reshape(m, 12)
        u, du = jet(y[:, :3])
        return np.hstack([u, (du @ y[:, 3:].reshape(m, 3, 3)).reshape(m, 9)]).ravel()

    y0 = np.hstack([nodes, np.tile(np.eye(3).ravel(), (m, 1))]).ravel()
    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=rtol / np.sqrt(m),
                    atol=atol / np.sqrt(m), dense_output=True)
    if not sol.success:
        raise IntegrationError(f"variational integration failed: {sol.message}")
    y = sol.y[:, -1].reshape(m, 12)
    return y[:, :3], y[:, 3:].reshape(m, 3, 3), sol.sol


def monodromy(field, orbit: PeriodicOrbit) -> FloquetData:
    """Floquet data of a periodic orbit from its closing shoot's transfer matrices.

    Integrates nothing: M(T) = M_m ... M_1 from the factors refine_orbit
    integrated from each shooting node, so trajectory error never compounds
    along the period. The eigenvalues of M(T) are 1 (the flow direction
    u(x0) is an exact eigenvector), mu_unstable and mu_stable, with product
    det M(T): drop the eigenvalue nearest 1, take mu_unstable as the
    larger-modulus survivor and mu_stable = det / mu_unstable, where det is
    the product of the factor determinants (Liouville). Both stay accurate
    when e^{T} exceeds 1/rtol, where the smaller survivor of M(T) is
    rounding. Since det > 0, the two multipliers are real or non-real
    together; an elliptic orbit gets its conjugate pair. The orbit is a
    hyperbolic_saddle iff they are real, |mu_unstable| > 1 > |mu_stable| and
    both moduli are at least 1e-6 from 1 (a pair straddling 1 by rounding is
    no saddle), elliptic iff they are non-real, and indeterminate otherwise.
    """
    factors = orbit.transfers
    det = float(np.prod(np.linalg.det(factors)))
    us = field(orbit.nodes)
    u_next = np.roll(us, -1, axis=0)
    flow_res = float(np.max(np.linalg.norm(np.einsum("kij,kj->ki", factors, us) - u_next,
                                           axis=1) / np.linalg.norm(u_next, axis=1)))

    m_total = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        for mk in factors:
            m_total = mk @ m_total
    if not np.isfinite(m_total).all():
        raise MonodromyOverflow(f"M(T) overflows float64 at the period T = {orbit.period:.6g}")

    eig = np.linalg.eigvals(m_total)
    eig = np.delete(eig, np.argmin(np.abs(eig - 1.0)))
    mu = complex(eig[np.argmax(np.abs(eig))])
    if mu == 0.0:
        raise MonodromyOverflow(f"M(T) underflows float64 at the period T = {orbit.period:.6g}")
    real = abs(mu.imag) < 1e-9 * abs(mu)
    mus = (mu.real, det / mu.real) if real else (mu, det / mu)
    margin = float(min(abs(abs(m) - 1.0) for m in mus))
    if not real:
        cls = "elliptic"
    elif abs(mus[0]) > 1.0 > abs(mus[1]) and margin >= 1e-6:
        cls = "hyperbolic_saddle"
    else:
        cls = "indeterminate"
    return FloquetData(det=det, multipliers=mus, flow_eigen_residual=flow_res,
                       classification=cls, margin=margin)
