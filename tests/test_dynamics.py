"""Integration, orbit refinement and Floquet data on closed-form fields."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from knotflows import dynamics, presets
from knotflows.charts import TubeChart
from knotflows.curves import FourierCurve, resample_arclength
from knotflows.dynamics import (MonodromyOverflow, NewtonFailure, OrbitEscape, integrate,
                                monodromy, refine_orbit)
from knotflows.field import BeltramiExpansion, _cos_sin_near, make_basis
from knotflows.framing import frame_transport
from knotflows.paper import TubeModelField

from conftest import fd_jacobian, overflowing_orbit, rotating_orbit


class _ConstantField:
    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.v, x.shape).copy()

    def jet(self, x):
        return self(x), np.zeros(np.shape(x) + (3,))

    def jet_near(self, centers):
        return self.jet


class _DoubledField:
    """Time reparametrization v = 2u: same orbits, half the period."""

    def __init__(self, base):
        self.base = base

    def __call__(self, x):
        return 2.0 * self.base(x)

    def jet(self, x):
        u, du = self.base.jet(x)
        return 2.0 * u, 2.0 * du

    def jet_near(self, centers):
        return self.jet


class _CountingField:
    """Counts the calls a consumer makes into each method of a base field, and
    the rows passed to each call of jet_near's function."""

    def __init__(self, base):
        self.base = base
        self.calls = {"__call__": 0, "jet": 0, "jet_near": 0}
        self.near_rows = []

    def __call__(self, x):
        self.calls["__call__"] += 1
        return self.base(x)

    def jet(self, x):
        self.calls["jet"] += 1
        return self.base.jet(x)

    def jet_near(self, centers):
        self.calls["jet_near"] += 1
        jet = self.base.jet_near(centers)

        def counted(x):
            self.near_rows.append(len(x))
            return jet(x)

        return counted


def _circle_chart(n=96, radius=0.5, w_half=0.1):
    arc = resample_arclength(presets.circle(1.0)[0], n)
    return TubeChart(frame_transport(arc), radius, w_half)


def _wobbled_chart():
    """A circle chart whose core is 1e-3 off the unit circle."""
    wobbled = FourierCurve(
        np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1e-3]], dtype=float),
        np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float))
    return TubeChart(frame_transport(resample_arclength(wobbled, 96)), 0.5, 0.05)


@pytest.fixture(scope="module")
def model():
    chart = _circle_chart()
    return chart, TubeModelField(chart)


def test_integrate_constant_field_is_linear():
    field = _ConstantField([0.5, -1.0, 2.0])
    traj = integrate(field, np.zeros(3), 3.0, n_samples=7)
    expect = np.linspace(0.0, 3.0, 7)[:, None] * field.v
    assert np.max(np.abs(traj.x - expect)) < 1e-12
    assert np.array_equal(integrate(field, np.zeros(3), 3.0).t, np.linspace(0.0, 3.0, 1024))
    for n in (1, 0):
        with pytest.raises(ValueError, match="n_samples"):
            integrate(field, np.zeros(3), 3.0, n_samples=n)


def test_integrate_single_wave_stays_on_straight_line():
    # u = (cos z, -sin z, 0): z is conserved, so each stream line is straight
    u = BeltramiExpansion(1.0, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]], [1.0], [0.0])
    z0 = 0.7
    traj = integrate(u, np.array([0.0, 0.0, z0]), 5.0, n_samples=11)
    t = np.linspace(0.0, 5.0, 11)
    expect = np.column_stack([t * np.cos(z0), -t * np.sin(z0),
                              np.full_like(t, z0)])
    assert np.max(np.abs(traj.x - expect)) < 1e-9


def test_model_field_outside_chart_raises(model):
    chart, field = model
    with pytest.raises(OrbitEscape):
        field(np.array([10.0, 10.0, 10.0]))
    with pytest.raises(OrbitEscape):
        integrate(field, chart.from_tube(np.array(0.3), np.array(0.0),
                                         np.array(0.0)), 2.0)


def test_refine_orbit_finds_core_from_wobbled_seeds(model):
    _, field = model
    # seeds come from a chart whose core is 1e-3 off the true periodic orbit
    chart_b = _wobbled_chart()
    # the oracle jacobian is finite-difference, so 1e-9 is its useful rtol floor
    orbit = refine_orbit(field, chart_b, rtol=1e-9, atol=1e-11,
                         closure_tol=1e-8, n_samples=1001)
    assert orbit.newton_iterations >= 1
    assert orbit.closure_residual < 1e-8
    radii = np.linalg.norm(orbit.points[:, :2], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-7
    assert np.max(np.abs(orbit.points[:, 2])) < 1e-7
    assert abs(orbit.period - 2.0 * np.pi) < 1e-7
    # exactly the samples asked for, at times kT/n: the unit-speed circle
    # advances 2 pi / n in angle from each sample to the next
    assert orbit.points.shape == (1001, 3)
    step = np.diff(np.unwrap(np.arctan2(orbit.points[:, 1], orbit.points[:, 0])))
    assert np.max(np.abs(step - 2.0 * np.pi / 1001)) < 1e-7


def test_refine_orbit_clips_its_step_and_names_the_escape(model, monkeypatch):
    # seeds on circle(1.02) in a tube of radius 0.01 about it: the Newton step
    # toward the model's orbit, the unit circle, is clipped to a quarter of
    # that radius, and the clipped iterate already leaves the thin tube
    _, field = model
    chart_b = TubeChart(frame_transport(resample_arclength(presets.circle(1.02)[0], 96)),
                        0.01, 0.002)
    shots = []
    shoot = dynamics._shoot

    def recorded_shoot(field, nodes, *args):
        shots.append(nodes)
        return shoot(field, nodes, *args)

    monkeypatch.setattr(dynamics, "_shoot", recorded_shoot)
    with pytest.raises(OrbitEscape, match="at iteration 0"):
        refine_orbit(field, chart_b)
    assert len(shots) == 2
    moved = np.max(np.linalg.norm(shots[1] - shots[0], axis=1))
    assert moved == pytest.approx(0.25 * chart_b.radius, rel=1e-12)


def test_refine_orbit_newton_budget_exhausted(model):
    _, field = model
    wobbled = FourierCurve(
        np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1e-3]], dtype=float),
        np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float))
    chart_b = TubeChart(frame_transport(resample_arclength(wobbled, 96)), 0.5, 0.05)
    with pytest.raises(NewtonFailure, match="not closed"):
        refine_orbit(field, chart_b, rtol=1e-7, atol=1e-9, max_iter=0)


def test_refine_orbit_accepts_the_closing_last_step(model):
    # one Newton step closes the wobbled seeds to ~3e-9, under 1e-8
    _, field = model
    orbit = refine_orbit(field, _wobbled_chart(), rtol=1e-9, atol=1e-11,
                         closure_tol=1e-8, max_iter=1)
    assert orbit.newton_iterations == 1
    assert orbit.closure_residual < 1e-8


def test_refine_orbit_needs_no_step_on_a_closed_seed(model):
    chart, field = model
    orbit = refine_orbit(field, chart, max_iter=0)
    assert orbit.newton_iterations == 0
    assert orbit.closure_residual < 1e-9


@pytest.mark.parametrize("n", [100, 250])
def test_closed_seed_needs_no_step_when_nodes_fall_between_samples(n):
    # 8 shooting nodes on 100 or 250 arc samples: nodes at exact arc steps
    # L/8 make every segment the same length, so the seed on the model's
    # orbit already closes; nodes snapped to samples would not
    chart = _circle_chart(n)
    orbit = refine_orbit(TubeModelField(chart), chart, max_iter=0)
    assert len(orbit.nodes) == 8 and n % 8 != 0
    assert orbit.newton_iterations == 0
    assert orbit.closure_residual < 1e-9


def test_orbit_is_integrated_once(model, monkeypatch):
    # the closing shoot is the only integration, of all 8 segments at once:
    # the samples and the Floquet factors both come from it
    chart, field = model
    calls = []
    solve_ivp = dynamics.solve_ivp

    def counted_solve_ivp(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted_solve_ivp)
    orbit = refine_orbit(field, chart, rtol=1e-9, atol=1e-11)
    monodromy(field, orbit)
    assert orbit.newton_iterations == 0
    assert len(calls) == 1


def test_monodromy_multipliers_of_tube_model(model):
    chart, field = model
    # the chart core is the model's orbit; the oracle jacobian is
    # finite-difference, so 1e-9 is its useful rtol floor
    orbit = refine_orbit(field, chart, rtol=1e-9, atol=1e-11)
    assert orbit.newton_iterations == 0
    assert orbit.points.shape == (1024, 3)
    flo = monodromy(field, orbit)
    mu_u, mu_s = flo.multipliers
    assert abs(mu_u - np.exp(2.0 * np.pi)) < 1e-4 * np.exp(2.0 * np.pi)
    assert abs(mu_s - np.exp(-2.0 * np.pi)) < 1e-4 * np.exp(-2.0 * np.pi)
    assert abs(mu_u * mu_s - 1.0) < 1e-4
    assert abs(flo.det - 1.0) < 1e-6
    assert flo.classification == "hyperbolic_saddle"
    assert flo.margin > 0.9
    assert flo.flow_eigen_residual < 1e-6


def test_time_rescaled_field_keeps_multipliers(model):
    chart, field = model
    fast = _DoubledField(field)
    # same closed curve traversed twice as fast
    orbit = refine_orbit(fast, chart, rtol=1e-9, atol=1e-11)
    assert abs(orbit.period - np.pi) < 1e-7
    flo = monodromy(fast, orbit)
    assert abs(flo.multipliers[0] - np.exp(2.0 * np.pi)) < 1e-4 * np.exp(2.0 * np.pi)
    assert abs(flo.multipliers[1] - np.exp(-2.0 * np.pi)) < 1e-4 * np.exp(-2.0 * np.pi)


def test_monodromy_of_rigid_rotation_is_identity():
    class Rotation:
        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            return np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])],
                            axis=-1)

        def jet(self, x):
            rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
            return self(x), np.broadcast_to(rot, np.shape(x) + (3,))

        def jet_near(self, centers):
            return self.jet

    orbit = refine_orbit(Rotation(), _circle_chart())
    assert abs(orbit.period - 2.0 * np.pi) < 1e-9
    flo = monodromy(Rotation(), orbit)
    assert abs(flo.det - 1.0) < 1e-10
    assert flo.classification == "indeterminate"
    assert flo.margin < 1e-8


def _axial(x):
    return np.tile([0.0, 0.0, 1.0], (len(x), 1))


def test_monodromy_refuses_an_overflowing_product():
    # e^768 is past float64's range: the product must not reach eigvals,
    # which would raise LinAlgError on its infs
    with pytest.raises(MonodromyOverflow, match="T = 768"):
        monodromy(_axial, overflowing_orbit())


def test_monodromy_refuses_an_underflowing_product():
    # factors diag(1, e^-12, e^-12) contract both transverse directions to
    # e^-768, below float64's range: mu_unstable reads 0, and det / 0 must not run
    orbit = overflowing_orbit()
    factors = np.broadcast_to(np.diag([1.0, np.exp(-12.0), np.exp(-12.0)]), (64, 3, 3))
    with pytest.raises(MonodromyOverflow, match="underflows .* T = 768"):
        monodromy(_axial, dataclasses.replace(orbit, transfers=factors))


def test_monodromy_reads_mu_stable_from_the_determinant(monkeypatch):
    # 64 factors P diag(e^2, e^-2, 1) P^-1 multiply to e^(+-128) beside the
    # flow eigenvalue 1: the smaller survivor of M(T) is rounding of its e^128
    # entries, while det / mu_unstable resolves e^-128, and no factor is inverted
    p = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]])
    factor = p @ np.diag([np.exp(2.0), np.exp(-2.0), 1.0]) @ np.linalg.inv(p)
    orbit = dataclasses.replace(overflowing_orbit(), period=128.0,
                                transfers=np.broadcast_to(factor, (64, 3, 3)))
    monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("a factor was inverted"))
    flo = monodromy(_axial, orbit)
    mu_u, mu_s = flo.multipliers
    assert isinstance(mu_u, float) and isinstance(mu_s, float)
    assert abs(mu_u * mu_s - flo.det) <= 2.0 * np.finfo(float).eps * abs(flo.det)
    assert abs(mu_u / np.exp(128.0) - 1.0) < 1e-12
    assert abs(mu_s / np.exp(-128.0) - 1.0) < 1e-12
    assert flo.classification == "hyperbolic_saddle"


def test_monodromy_of_an_elliptic_orbit_is_its_conjugate_pair():
    # all three eigenvalues have modulus 1: the flow eigenvalue 1 is dropped
    # from M(T) and mu_stable = det / mu_unstable, so neither multiplier is it
    flo = monodromy(_axial, rotating_orbit())
    mu_u, mu_s = flo.multipliers
    assert isinstance(mu_u, complex) and isinstance(mu_s, complex)
    assert abs(mu_u.imag) > 0.5
    pair = np.exp(1j * np.copysign(0.64, mu_u.imag) * np.array([1.0, -1.0]))
    assert np.max(np.abs(np.array([mu_u, mu_s]) - pair)) < 1e-12
    assert flo.classification == "elliptic"
    assert flo.margin < 1e-12


def test_monodromy_of_a_near_identity_pair_straddling_1_is_indeterminate():
    # factors diag(1 + 1e-9, 1/(1 + 1e-9), 1): M(T)'s survivors are real and
    # straddle 1 by 6.4e-8, which is rounding noise, not a saddle
    orbit = overflowing_orbit()
    stretch = 1.0 + 1e-9
    factors = np.broadcast_to(np.diag([stretch, 1.0 / stretch, 1.0]), (64, 3, 3))
    flo = monodromy(_axial, dataclasses.replace(orbit, period=2.0 * np.pi, transfers=factors))
    mu_u, mu_s = flo.multipliers
    assert isinstance(mu_u, float) and isinstance(mu_s, float)
    assert abs(mu_u) > 1.0 > abs(mu_s)
    assert flo.margin < 1e-6
    assert flo.classification == "indeterminate"


def _random_expansion(n_dirs, seed):
    rng = np.random.default_rng(seed)
    k, e = make_basis(n_dirs, rng)
    return BeltramiExpansion(1.0, k, e, rng.standard_normal(len(k)),
                             rng.standard_normal(len(k)))


def test_shoot_makes_one_jet_near_call_per_rhs(monkeypatch):
    field = _CountingField(_random_expansion(6, 3))
    nodes = np.random.default_rng(4).uniform(-2.0, 2.0, (5, 3))
    nfev = []
    solve_ivp = dynamics.solve_ivp

    def counted_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counted_solve_ivp)
    dynamics._shoot(field, nodes, 2.0, 1e-10, 1e-12)
    assert len(nfev) == 1
    assert field.calls == {"__call__": 0, "jet": 0, "jet_near": 1}
    assert field.near_rows == [5] * nfev[0]


def _segment(field, x0, tau, rtol, atol):
    """Reference: one segment's state and transfer matrix, integrated alone."""

    def rhs(t, y):
        u, du = field.jet(y[:3])
        return np.concatenate([u, (du @ y[3:].reshape(3, 3)).ravel()])

    sol = solve_ivp(rhs, (0.0, tau), np.concatenate([x0, np.eye(3).ravel()]),
                    method="DOP853", rtol=rtol, atol=atol)
    return sol.y[:3, -1], sol.y[3:, -1].reshape(3, 3)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_batched_shoot_is_no_less_accurate_than_single_segments(seed):
    # nodes 10 away from the origin put the phases lam k.x at up to ~12, where
    # the centred phases of jet_near matter; tolerances scaled by 1/sqrt(m)
    # keep every segment at least as tight as a solve of its own
    field = _random_expansion(24, seed)
    nodes = np.array([10.0, 4.0, -3.0]) + np.random.default_rng(seed).uniform(-1.0, 1.0, (8, 3))
    assert np.max(np.abs(nodes @ field.lk)) > 10.0
    tau = 0.5
    ref_ends, ref_mats = map(np.array, zip(*(_segment(field, x, tau, 1e-13, 1e-15)
                                             for x in nodes)))
    one_ends, one_mats = map(np.array, zip(*(_segment(field, x, tau, 1e-10, 1e-12)
                                             for x in nodes)))
    ends, mats, _ = dynamics._shoot(field, nodes, tau, 1e-10, 1e-12)

    def errors(e, mm):
        rel = np.linalg.norm(mm - ref_mats, axis=(1, 2)) / np.linalg.norm(ref_mats, axis=(1, 2))
        return np.max(np.abs(e - ref_ends)), np.max(rel)

    batched, single = errors(ends, mats), errors(one_ends, one_mats)
    assert batched[0] <= single[0] and batched[1] <= single[1], (batched, single)


def test_jet_near_matches_jet():
    # angle addition against cos and sin of the whole phase: both round at
    # about eps (1 + |phase|) per member, weighted by its amplitude |c_j|
    # (value) and lam |c_j| (Jacobian)
    field = _random_expansion(24, 8)
    rng = np.random.default_rng(9)
    centers = np.array([10.0, 4.0, -3.0]) + rng.uniform(-1.0, 1.0, (8, 3))
    x = centers + rng.uniform(-0.5, 0.5, centers.shape)
    u, du = field.jet_near(centers)(x)
    u_ref, du_ref = field.jet(x)
    phase = np.max(np.abs(x @ field.lk))
    assert phase > 10.0
    bound = 8.0 * np.finfo(float).eps * (1.0 + phase) * np.sum(np.hypot(field.alpha, field.beta))
    assert u.shape == (8, 3) and du.shape == (8, 3, 3)
    assert np.max(np.abs(u - u_ref)) < bound
    assert np.max(np.abs(du - du_ref)) < abs(field.lam) * bound


def test_jet_near_matches_jet_across_re_centres(monkeypatch):
    # 8 rows walk 200 steps of 0.05 from phases above 10, so the offset phases
    # leave |d| <= 1/2 every ten steps or more: the kernel serves the calls in
    # between, each overflow re-centres at x, and every call meets the bound
    # of test_jet_near_matches_jet; a nan row re-centres too, and leaves no
    # stale centre for the next finite call
    field = _random_expansion(24, 8)
    rng = np.random.default_rng(10)
    centers = np.array([10.0, 4.0, -3.0]) + rng.uniform(-1.0, 1.0, (8, 3))
    step = rng.normal(size=(8, 3))
    step *= 0.05 / np.linalg.norm(step, axis=1, keepdims=True)
    kernel = []

    def counted(d):
        kernel.append(1)
        return _cos_sin_near(d)

    monkeypatch.setattr("knotflows.field._cos_sin_near", counted)
    amplitude = np.sum(np.hypot(field.alpha, field.beta))

    def assert_close(u, du, x):
        u_ref, du_ref = field.jet(x)
        phase = np.max(np.abs(x @ field.lk))
        bound = 8.0 * np.finfo(float).eps * (1.0 + phase) * amplitude
        assert np.max(np.abs(u - u_ref)) < bound
        assert np.max(np.abs(du - du_ref)) < abs(field.lam) * bound

    jet = field.jet_near(centers)
    assert np.all(np.max(np.abs(centers @ field.lk), axis=1) > 10.0)
    for i in range(200):
        x = centers + i * step
        assert_close(*jet(x), x)
    # both branches ran: steps of at most 0.05 in phase keep |d| <= 1/2 for 10
    # calls after a re-centre, and the 24 spread members leave it within 20
    assert 200 - 20 <= len(kernel) <= 200 - 10
    bad = x + step
    bad[3] = np.nan
    u, du = jet(bad)
    assert np.isnan(u[3]).all() and np.isnan(du[3]).all()
    rows = np.arange(8) != 3
    assert_close(u[rows], du[rows], bad[rows])
    calls = len(kernel)
    x = x + 2.0 * step
    assert_close(*jet(x), x)
    x = x + step
    assert_close(*jet(x), x)
    assert len(kernel) == calls + 1


def test_tube_model_field_projects_once(monkeypatch):
    chart = _circle_chart()
    field = TubeModelField(chart)
    x = chart.from_tube(np.array(0.2), np.array(0.05), np.array(1.0))
    jets = []
    strip_jet = chart.strip_jet

    def counted_strip_jet(s, t):
        jets.append(1)
        return strip_jet(s, t)

    monkeypatch.setattr(chart, "strip_jet", counted_strip_jet)
    chart.to_tube_many(x[None])
    projection = len(jets)
    jets.clear()
    field(x)
    assert projection > 0 and len(jets) == projection


def test_tube_model_jet_projects_once_and_matches_differences(monkeypatch):
    chart = _circle_chart()
    field = TubeModelField(chart)
    points = [chart.from_tube(*(np.array(c) for c in q))
              for q in ((0.2, 0.05, 1.0), (-0.3, -0.08, 4.0), (0.0, 0.0, 0.0))]
    values = [field(x) for x in points]
    jacobians = [fd_jacobian(field, x) for x in points]
    projections = []
    to_tube_jet = chart._to_tube_jet

    def counted_to_tube_jet(x):
        projections.append(1)
        return to_tube_jet(x)

    monkeypatch.setattr(chart, "_to_tube_jet", counted_to_tube_jet)
    for x, value, jacobian in zip(points, values, jacobians):
        u, du = field.jet(x)
        assert np.array_equal(u, value)
        assert np.max(np.abs(du - jacobian)) < 1e-6
    assert len(projections) == len(points)


def test_tube_model_jet_batches_rows_in_one_projection(monkeypatch):
    chart = _circle_chart()
    field = TubeModelField(chart)
    points = np.array([chart.from_tube(*(np.array(c) for c in q))
                       for q in ((0.2, 0.05, 1.0), (-0.3, -0.08, 4.0), (0.0, 0.0, 0.0),
                                 (0.1, 0.02, 5.5))])
    single = [field.jet(x) for x in points]
    projections = []
    to_tube_jet = chart._to_tube_jet

    def counted_to_tube_jet(x):
        projections.append(1)
        return to_tube_jet(x)

    monkeypatch.setattr(chart, "_to_tube_jet", counted_to_tube_jet)
    u, du = field.jet(points)
    assert len(projections) == 1
    assert u.shape == (4, 3) and du.shape == (4, 3, 3)
    assert field.jet_near(points) == field.jet
    # the batched projection rounds the chart coordinates in the last bits;
    # the 1e-6 central differences of Du magnify that by about 1/(2e-6)
    for (u1, du1), row, drow in zip(single, u, du):
        assert np.max(np.abs(u1 - row)) < 1e-14
        assert np.max(np.abs(du1 - drow)) < 1e-9
