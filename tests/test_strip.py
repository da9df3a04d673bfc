"""Strip metric, Cauchy data, closedness, the strip residual, and the paper's
in-strip core multiplier."""

from types import SimpleNamespace

import numpy as np
import pytest

from knotflows import field, presets
from knotflows.charts import TubeChart
from knotflows.config import RunConfig
from knotflows.curves import LinkSpec, resample_arclength
from knotflows.field import BeltramiExpansion, make_basis
from knotflows.framing import frame_transport
from knotflows.paper import strip_monodromy
from knotflows.pipeline import build_geometry
from knotflows.strip import (GAUSS_T_NODES, STRIP_BLOCK, _cauchy_vector, build_cauchy_data,
                             gauss_rule, strip_residual)

from conftest import traced_peak


def _chart(curve, radius=0.5, w_half=0.1, n=1024):
    arc = resample_arclength(curve, n)
    return TubeChart(frame_transport(arc), radius, w_half)


def test_cauchy_field_on_core_is_unit_tangent():
    chart = _chart(presets.trefoil()[0], radius=0.1, w_half=0.03)
    s = np.linspace(0.0, chart.length, 32, endpoint=False)
    w = _cauchy_vector(chart.strip_jet(s, np.zeros_like(s)), np.zeros_like(s))
    c_s = chart.frame.jet(s)[0][:, 1]
    tangent = c_s / np.linalg.norm(c_s, axis=1, keepdims=True)
    assert np.max(np.linalg.norm(w - tangent, axis=1)) < 1e-8


def test_cauchy_field_explicit_value_on_circle():
    chart = _chart(presets.circle(1.0)[0])
    w = _cauchy_vector(chart.strip_jet(0.0, 0.1), 0.1)
    # S = (1+t)(cos s, sin s, 0): w = (-sin s, cos s, 0)/(1+t) - t (cos s, sin s, 0)
    assert np.max(np.abs(w - np.array([-0.1, 1.0 / 1.1, 0.0]))) < 1e-8


def _strip_metric(chart, s, t):
    """h_ss, h_st, h_tt of the strip embedding at (s, t)."""
    jet = chart.strip_jet(s, np.asarray(t, dtype=float))
    return (np.sum(jet["S_s"] * jet["S_s"], axis=-1),
            np.sum(jet["S_s"] * jet["S_t"], axis=-1),
            np.sum(jet["S_t"] * jet["S_t"], axis=-1))


def _gamma_on_grid(chart, cfg):
    """The (s, t) nodes of build_cauchy_data's grid and gamma = (w . S_s, w . e1)
    recomputed there from the strip jet."""
    ns = max(64, int(round(cfg.strip_s_per_2pi * chart.length / (2.0 * np.pi))))
    s = chart.length * np.arange(ns) / ns
    t = np.linspace(-chart.w_half, chart.w_half, cfg.strip_t_nodes)
    jet = chart.strip_jet(s[:, None], t[None, :])
    w = build_cauchy_data(chart, cfg).w
    return s, t, np.sum(w * jet["S_s"], axis=-1), np.sum(w * jet["e1"], axis=-1)


def test_strip_metric_of_circle():
    chart = _chart(presets.circle(1.0)[0])
    s = np.array([0.2, 1.0, 3.0, 5.5])
    t = np.array([-0.08, 0.0, 0.05, 0.1])
    h_ss, h_st, h_tt = _strip_metric(chart, s, t)
    det = h_ss * h_tt - h_st**2
    assert np.max(np.abs(h_ss - (1.0 + t) ** 2)) < 1e-6
    assert np.max(np.abs(h_st)) < 1e-8
    assert np.max(np.abs(h_tt - 1.0)) < 1e-12
    assert np.max(np.abs(det - (1.0 + t) ** 2)) < 1e-6
    assert np.max(np.abs(1.0 / h_ss - (1.0 + t) ** -2)) < 1e-6


def test_cauchy_data_grid_and_closedness():
    chart = _chart(presets.trefoil()[0], radius=0.1, w_half=0.02)
    cfg = RunConfig(strip_s_per_2pi=64, strip_t_nodes=17)
    data = build_cauchy_data(chart, cfg)
    s, t, gamma_s, gamma_t = _gamma_on_grid(chart, cfg)
    assert data.core.shape == data.e1.shape == (len(s), 3)
    assert np.array_equal(data.t, t)
    assert data.w.shape == (len(s), 17, 3)
    # gamma = ds - t dt for any chart: both components are exact here
    assert np.max(np.abs(gamma_s - 1.0)) < 1e-9
    assert np.max(np.abs(gamma_t + t[None, :])) < 1e-9
    assert data.closedness < 1e-8
    # w is tangent to the strip: orthogonal to its unit normals
    n = chart.normal_jet(s[:, None], t[None, :])["n"]
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.sum(n * data.w, axis=-1))) < 1e-8


def test_cauchy_data_fit_rows_sit_at_the_gauss_nodes(monkeypatch):
    chart = _chart(presets.trefoil()[0], radius=0.1, w_half=0.02)
    cfg = RunConfig(strip_s_per_2pi=64, strip_t_nodes=17)
    s, t, _, _ = _gamma_on_grid(chart, cfg)
    tau, weight = gauss_rule(17)
    calls = []
    strip_jet = TubeChart.strip_jet

    def counted(self, s, t):
        calls.append(1)
        return strip_jet(self, s, t)

    monkeypatch.setattr(TubeChart, "strip_jet", counted)
    data = build_cauchy_data(chart, cfg)
    # one strip jet serves the grid and the fit rows, each bit for bit what a
    # strip jet at its own t alone gives
    assert len(calls) == 1
    monkeypatch.undo()
    assert data.fit_points.shape == data.fit_w.shape == (len(s), GAUSS_T_NODES, 3)
    assert np.array_equal(data.fit_sqrt_weight, np.sqrt(weight))
    jet = chart.strip_jet(s[:, None], chart.w_half * tau[None, :])
    assert np.array_equal(data.fit_points, jet["S"])
    assert np.array_equal(data.fit_w, _cauchy_vector(jet, chart.w_half * tau[None, :]))
    grid = chart.strip_jet(s[:, None], t[None, :])
    assert np.array_equal(data.core[:, None, :] + t[None, :, None] * data.e1[:, None, :],
                          grid["S"])
    assert np.array_equal(data.w, _cauchy_vector(grid, t[None, :]))


@pytest.mark.parametrize("n_grid", [9, 33])
def test_gauss_rule_sums_the_grid_moments(n_grid):
    tau, weight = gauss_rule(n_grid)
    grid = np.linspace(-1.0, 1.0, n_grid)
    assert len(tau) == GAUSS_T_NODES
    assert np.all(weight > 0) and np.all(np.diff(tau) > 0)
    assert np.max(np.abs(tau + tau[::-1])) < 1e-15
    # every t^j of degree j < 2P, relative to the grid's sum of |t|^j (n_grid at j = 0)
    for j in range(2 * GAUSS_T_NODES):
        err = abs(np.sum(weight * tau**j) - np.sum(grid**j))
        assert err <= 1e-14 * np.sum(np.abs(grid) ** j), j


@pytest.mark.parametrize("n_grid", [3, 4, 5, 6])
def test_gauss_rule_of_a_few_nodes_is_the_grid(n_grid):
    tau, weight = gauss_rule(n_grid)
    assert np.max(np.abs(tau - np.linspace(-1.0, 1.0, n_grid))) <= 1e-15
    assert np.max(np.abs(weight - 1.0)) <= 1e-14


def _fd_closedness(gamma_s, gamma_t, ds, dt):
    """Oracle: max |d/ds gamma_t - d/dt gamma_s| by central differences,
    periodic in s and one-sided at the t edges."""
    dgt_ds = (np.roll(gamma_t, -1, axis=0) - np.roll(gamma_t, 1, axis=0)) / (2.0 * ds)
    return float(np.max(np.abs(dgt_ds - np.gradient(gamma_s, dt, axis=1, edge_order=2))))


def test_closedness_reads_a_frame_defect_that_differences_converge_to(monkeypatch):
    # e1 scaled by g = 1 + 1e-3 sin(q s), q = 2 pi / L, is no unit normal, so
    # gamma is not closed; central differences of gamma on the grid converge
    # to the closed form at second order as the grid refines
    chart = _chart(presets.trefoil()[0], radius=0.1, w_half=0.02)
    q = 2.0 * np.pi / chart.length
    jet = chart.frame.jet

    def scaled(s):
        c, e = jet(s)
        qs = q * np.asarray(s)[..., None]
        g, dg, d2g = 1.0 + 1e-3 * np.sin(qs), 1e-3 * q * np.cos(qs), -1e-3 * q * q * np.sin(qs)
        return c, np.stack([g * e[..., 0, :], g * e[..., 1, :] + dg * e[..., 0, :],
                            g * e[..., 2, :] + 2.0 * dg * e[..., 1, :] + d2g * e[..., 0, :]],
                           axis=-2)

    monkeypatch.setattr(chart.frame, "jet", scaled)
    errors = []
    for s_per_2pi, nt in ((202, 17), (807, 65)):
        cfg = RunConfig(strip_s_per_2pi=s_per_2pi, strip_t_nodes=nt)
        s, t, gamma_s, gamma_t = _gamma_on_grid(chart, cfg)
        closedness = build_cauchy_data(chart, cfg).closedness
        # |d(gamma)| ~ w_half |g'| ~ 1.7e-5, far above a unit frame's rounding
        assert closedness > 1e-6
        fd = _fd_closedness(gamma_s, gamma_t, s[1] - s[0], t[1] - t[0])
        errors.append(abs(fd - closedness) / closedness)
    # 256 x 17, then 1,024 x 65 nodes: steps 4x finer, so second order takes
    # the error down about 16x
    assert errors[1] < errors[0] / 10.0 and errors[1] < 1e-3, errors


def test_lyapunov_values_identity():
    # w applied to t^2 is 2 t w_t, where the d/dt component w_t of
    # w = gamma contracted with the inverse strip metric is -t: the core attracts
    chart = _chart(presets.trefoil()[0], radius=0.1, w_half=0.02)
    s, t, gamma_s, gamma_t = _gamma_on_grid(chart, RunConfig(strip_s_per_2pi=64,
                                                          strip_t_nodes=9))
    h_ss, h_st, h_tt = _strip_metric(chart, s[:, None], t[None, :])
    assert np.max(np.abs(h_st)) < 1e-9
    w_t = (gamma_t * h_ss - gamma_s * h_st) / (h_ss * h_tt - h_st**2)
    vals = 2.0 * t[None, :] * w_t
    expect = -2.0 * np.broadcast_to(t[None, :] ** 2, vals.shape)
    assert np.max(np.abs(vals - expect)) < 1e-9
    assert np.all(vals <= 1e-12)


def test_strip_monodromy_circle_is_exp_minus_2pi():
    chart = _chart(presets.circle(1.0)[0])
    mu, period = strip_monodromy(chart)
    assert abs(period - 2.0 * np.pi) < 1e-8
    assert abs(mu - np.exp(-2.0 * np.pi)) < 1e-6


def test_strip_monodromy_trefoil_is_exp_minus_length():
    chart = _chart(presets.trefoil()[0], radius=0.1, w_half=0.02)
    mu, period = strip_monodromy(chart)
    assert abs(period - chart.length) < 1e-6
    assert abs(mu - np.exp(-chart.length)) < 1e-6


def test_strip_monodromy_scales_with_length():
    # a circle of circumference 1: the return time is 1, the multiplier e^{-1}
    chart = _chart(presets.circle(1.0 / (2.0 * np.pi))[0],
                   radius=0.05, w_half=0.01)
    mu, period = strip_monodromy(chart)
    assert abs(period - 1.0) < 1e-8
    assert abs(mu - np.exp(-1.0)) < 1e-8


def _random_rulings(rng, ns, nt, half):
    """ns rulings of seeded cores in [-40, 40]^3 and unit directions, nt t-nodes
    across [-half, half], with standard-normal targets on the grid."""
    core = rng.uniform(-40.0, 40.0, (ns, 3))
    e1 = rng.standard_normal((ns, 3))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return SimpleNamespace(core=core, e1=e1, t=np.linspace(-half, half, nt),
                           w=rng.standard_normal((ns, nt, 3)))


def test_strip_residual_memory_is_bounded_by_its_block():
    # a trefoil-fixture tube: 325 x 33 strip nodes (10,725 points) against 600
    # members; one field call on the whole grid peaks near 100 MiB
    rng = np.random.default_rng(5)
    k, e = make_basis(600, rng)
    u = BeltramiExpansion(1.0, k, e, rng.standard_normal(600), rng.standard_normal(600))
    data = _random_rulings(rng, 325, 33, 0.07)
    got, peak = traced_peak(strip_residual, u, data)
    assert peak < 4 * 2**20
    # the oracle: direct field calls on the grid, 100 points at a time
    x = (data.core[:, None, :] + data.t[None, :, None] * data.e1[:, None, :]).reshape(-1, 3)
    w = data.w.reshape(-1, 3)
    expect = max(np.linalg.norm(u(x[lo:lo + 100]) - w[lo:lo + 100], axis=1).max()
                 for lo in range(0, x.shape[0], 100))
    assert abs(got - expect) <= 1e-12 * expect


def test_strip_residual_reads_nan_in_the_last_block():
    # 100 s-rows of 33 t-nodes are 4 blocks of 31 rows; a nan target in the
    # last one must not be dropped by the max over blocks
    rng = np.random.default_rng(6)
    k, e = make_basis(20, rng)
    u = BeltramiExpansion(1.0, k, e, rng.standard_normal(20), rng.standard_normal(20))
    data = _random_rulings(rng, 100, 33, 0.07)
    assert np.isfinite(strip_residual(u, data))
    data.w[-1, 5, 1] = np.nan
    assert np.isnan(strip_residual(u, data))


@pytest.mark.parametrize("curves, cfg, terms", [
    # the benchmark's ellipse and hopf workloads: |t B| <= w_half lam = 0.014, 0.035
    (presets.borromean(major=8.0)[:1],
     RunConfig(directions=200, strip_s_per_2pi=32, orbit_samples=512), 7),
    (presets.hopf(radius=14.0),
     RunConfig(directions=400, w_half_factor=0.01, strip_s_per_2pi=18, strip_t_nodes=9,
               orbit_samples=256), 8),
], ids=["ellipse", "hopf"])
def test_strip_residual_series_terms_on_the_workload_strips(monkeypatch, curves, cfg, terms):
    _, datas = build_geometry(LinkSpec(1.0, tuple(curves)), cfg)
    k, e = make_basis(cfg.directions, np.random.default_rng(cfg.seed))
    rng = np.random.default_rng(7)
    u = BeltramiExpansion(1.0, k, e, rng.standard_normal(len(k)), rng.standard_normal(len(k)))
    counts = []
    taylor_terms = field._taylor_terms
    monkeypatch.setattr(field, "_taylor_terms",
                        lambda h: counts.append(taylor_terms(h)) or counts[-1])
    for data in datas:
        strip_residual(u, data)
    blocks = sum(-(-d.core.shape[0] // (STRIP_BLOCK // d.t.size)) for d in datas)
    assert counts == [terms] * blocks
