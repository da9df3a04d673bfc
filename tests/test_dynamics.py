"""Integration, orbit refinement and Floquet data on closed-form fields."""

import numpy as np
import pytest

from knotflows import dynamics, presets
from knotflows.charts import TubeChart
from knotflows.curves import FourierCurve, resample_arclength
from knotflows.dynamics import (NewtonFailure, OrbitEscape, TubeModelField,
                                integrate, monodromy, refine_orbit)
from knotflows.field import BeltramiExpansion, make_basis
from knotflows.framing import frame_transport

from conftest import fd_jacobian


class _ConstantField:
    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.v, x.shape).copy()

    def jacobian(self, x):
        return np.zeros((3, 3))

    def jet(self, x):
        return self(x), self.jacobian(x)


class _DoubledField:
    """Time reparametrization v = 2u: same orbits, half the period."""

    def __init__(self, base):
        self.base = base

    def __call__(self, x):
        return 2.0 * self.base(x)

    def jacobian(self, x):
        return 2.0 * self.base.jacobian(x)

    def jet(self, x):
        return self(x), self.jacobian(x)


class _CountingField:
    """Counts the calls a consumer makes into each method of a base field."""

    def __init__(self, base):
        self.base = base
        self.calls = {"__call__": 0, "jacobian": 0, "jet": 0}

    def __call__(self, x):
        self.calls["__call__"] += 1
        return self.base(x)

    def jacobian(self, x):
        self.calls["jacobian"] += 1
        return self.base.jacobian(x)

    def jet(self, x):
        self.calls["jet"] += 1
        return self.base.jet(x)


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


def test_orbit_is_integrated_once(model, monkeypatch):
    # the closing shoot's 8 segments are the only integrations: the samples
    # and the Floquet factors both come from it
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
    assert len(calls) == 8


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

        def jacobian(self, x):
            return np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

        def jet(self, x):
            return self(x), self.jacobian(x)

    orbit = refine_orbit(Rotation(), _circle_chart())
    assert abs(orbit.period - 2.0 * np.pi) < 1e-9
    flo = monodromy(Rotation(), orbit)
    assert np.max(np.abs(flo.monodromy - np.eye(3))) < 1e-8
    assert abs(flo.det - 1.0) < 1e-10
    assert flo.classification == "indeterminate"
    assert flo.margin < 1e-8


def test_variational_rhs_makes_one_jet_call(monkeypatch):
    rng = np.random.default_rng(3)
    k, e = make_basis(6, rng)
    field = _CountingField(BeltramiExpansion(1.0, k, e, rng.standard_normal(len(k)),
                                             rng.standard_normal(len(k))))
    nfev = []
    solve_ivp = dynamics.solve_ivp

    def counted_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counted_solve_ivp)
    dynamics._fundamental_segment(field, np.zeros(3), 0.0, 2.0, 1e-10, 1e-12)
    assert nfev and field.calls == {"__call__": 0, "jacobian": 0, "jet": nfev[0]}


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
    chart.to_tube(x)
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
