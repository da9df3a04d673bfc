"""Transverse marching solver: stencils, flat closed forms, guards, tube metrics."""

import numpy as np
import pytest

from knotflows import presets
from knotflows.charts import TubeChart, chart_columns
from knotflows.curves import resample_arclength
from knotflows.field import BeltramiExpansion, make_basis
from knotflows.framing import frame_transport
from knotflows.marcher import (ChartTubeMetric, FlatMetric, MarchError,
                               MarchGrid, beltrami_residual, chi_from_constraint,
                               d1_matrix, divergence_residual, initial_level,
                               march, rho_step)
from knotflows.strip import strip_metric


def _flat(nz=9, nth=16):
    grid = MarchGrid(np.linspace(-1.0, 1.0, nz), nth, 2.0 * np.pi)
    return grid, FlatMetric(grid)


def _plane_data(grid):
    """a = (1, 0): the flat march must produce (cos lam rho, -sin lam rho)."""
    a0 = np.zeros((2, len(grid.z_nodes), grid.n_theta))
    a0[0] = 1.0
    return a0


def test_d1_matrix_exact_on_quartics():
    x = np.linspace(0.3, 1.7, 11)
    d = d1_matrix(11, x[1] - x[0])
    p = x**4 - 2.0 * x**2 + 3.0 * x
    dp = 4.0 * x**3 - 4.0 * x + 3.0
    assert np.max(np.abs(d @ p - dp)) < 1e-10
    with pytest.raises(ValueError):
        d1_matrix(4, 0.1)


def test_theta_deriv_is_spectral():
    grid = MarchGrid(np.linspace(0.0, 1.0, 5), 32, 3.0)
    th = grid.theta_nodes
    f = np.sin(2.0 * np.pi * 2.0 * th / 3.0) + 0.5 * np.cos(2.0 * np.pi * 5.0 * th / 3.0)
    df = (2.0 * np.pi * 2.0 / 3.0) * np.cos(2.0 * np.pi * 2.0 * th / 3.0) \
        - 0.5 * (2.0 * np.pi * 5.0 / 3.0) * np.sin(2.0 * np.pi * 5.0 * th / 3.0)
    assert np.max(np.abs(grid.theta_deriv(f) - df)) < 1e-12
    # the unpaired Nyquist mode has no odd derivative: it is dropped
    grid16 = MarchGrid(np.linspace(0.0, 1.0, 5), 16, 2.0 * np.pi)
    nyq = np.cos(8.0 * grid16.theta_nodes)
    assert np.max(np.abs(grid16.theta_deriv(nyq))) < 1e-12


def test_theta_filter_passes_low_and_kills_high_modes():
    grid = MarchGrid(np.linspace(0.0, 1.0, 5), 128, 2.0 * np.pi)
    th = grid.theta_nodes
    low, high = np.cos(2.0 * th), np.cos(40.0 * th)
    out = grid.theta_filter(low + high, 32)
    assert np.max(np.abs(out - low)) < 1e-10


def test_initial_level_is_strip_cauchy_data():
    grid, _ = _flat()
    a = initial_level(grid)
    assert np.max(np.abs(a[0] + grid.z_nodes[:, None])) == 0.0
    assert np.max(np.abs(a[1] - 1.0)) == 0.0


def test_chi_constraint_closed_and_linear_cases():
    grid, flat = _flat()
    dz = grid.dz_matrix()
    a = initial_level(grid)
    # closed strip data: d_z a_theta = d_theta a_z = 0 identically
    chi = chi_from_constraint(a, flat.at(0.0), 2.0, grid, dz)
    assert np.max(np.abs(chi)) < 1e-13
    a_lin = a.copy()
    a_lin[1] = np.broadcast_to(grid.z_nodes[:, None], a[1].shape)
    chi = chi_from_constraint(a_lin, flat.at(0.0), 2.0, grid, dz)
    assert np.max(np.abs(chi - 0.5)) < 1e-12


def test_flat_march_reproduces_rotation_identity():
    grid, flat = _flat()
    res = march(flat, 1.0, 0.5, 24, grid=grid, a0=_plane_data(grid))
    assert np.max(np.abs(res.a[-1, 0] - np.cos(0.5))) < 1e-8
    assert np.max(np.abs(res.a[-1, 1] + np.sin(0.5))) < 1e-8


def test_flat_march_fourth_order_convergence():
    grid, flat = _flat()
    errs = []
    for n in (6, 12, 24):
        res = march(flat, 1.0, 0.5, n, grid=grid, a0=_plane_data(grid))
        errs.append(max(np.max(np.abs(res.a[-1, 0] - np.cos(0.5))),
                        np.max(np.abs(res.a[-1, 1] + np.sin(0.5)))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 3.5) and np.all(orders < 4.5)


def test_flat_march_closed_form_with_strip_data():
    # from a = (-z, 1): a_z = -z cos + sin, a_theta = cos + z sin, chi = sin/lam
    grid, flat = _flat()
    res = march(flat, 1.0, 0.5, 24, grid=grid)
    z = grid.z_nodes[:, None]
    assert np.max(np.abs(res.a[-1, 0] - (-z * np.cos(0.5) + np.sin(0.5)))) < 5e-9
    assert np.max(np.abs(res.a[-1, 1] - (np.cos(0.5) + z * np.sin(0.5)))) < 5e-9
    assert np.max(np.abs(res.chi[-1] - np.sin(0.5))) < 5e-9
    assert beltrami_residual(res, flat) < 1e-7


def test_rho_step_with_zero_step_is_identity():
    grid, flat = _flat(nth=64)
    a = np.zeros((2, 9, 64))
    a[0] = np.cos(3.0 * grid.theta_nodes)
    a[1] = grid.z_nodes[:, None] * np.sin(2.0 * grid.theta_nodes)
    out = rho_step(a, 0.0, 0.0, flat, 1.0, grid, grid.dz_matrix(), m_max=32)
    assert np.max(np.abs(out - a)) < 1e-13


def test_flat_divergence_vanishes_for_plane_data():
    grid, flat = _flat()
    res = march(flat, 1.0, 0.5, 12, grid=grid, a0=_plane_data(grid))
    trusted, full, div = divergence_residual(res, flat)
    assert trusted < 1e-10
    assert div.shape == (13, 9, 16)
    with pytest.raises(ValueError, match="3 rho levels"):
        divergence_residual(
            march(flat, 1.0, 0.1, 1, grid=grid, a0=_plane_data(grid)), flat)


def test_circle_tube_divergence_small_and_converging():
    arc = resample_arclength(presets.circle(1.0)[0], 256)
    chart = TubeChart(frame_transport(arc), 0.5, 0.05)
    grid = MarchGrid(np.linspace(-0.05, 0.05, 17), 64, chart.length)
    metric = ChartTubeMetric(chart, grid)
    res8 = march(metric, 1.0, 0.01, 8, grid=grid)
    res16 = march(metric, 1.0, 0.01, 16, grid=grid)
    t8 = divergence_residual(res8, metric)[0]
    t16 = divergence_residual(res16, metric)[0]
    assert t8 < 1e-6
    # the rho-derivative of the residual is second order across levels
    assert t8 / t16 > 3.0
    assert beltrami_residual(res8, metric) < 1e-8


def test_growth_cap_aborts_ill_posed_march():
    grid = MarchGrid(np.linspace(-1.0, 1.0, 9), 64, 2.0 * np.pi)
    flat = FlatMetric(grid)
    a0 = np.zeros((2, 9, 64))
    a0[0] = 1.0
    a0[1] = np.cos(16.0 * grid.theta_nodes)  # e^{16 rho} growth
    with pytest.raises(MarchError) as exc:
        march(flat, 1.0, 1.0, 50, grid=grid, a0=a0, m_max=32, growth_cap=10.0)
    assert 0.0 < exc.value.rho_reached < 1.0
    assert exc.value.ratio > 10.0


def test_chart_tube_metric_matches_strip_metric_on_strip():
    arc = resample_arclength(presets.circle(1.0)[0], 512)
    chart = TubeChart(frame_transport(arc), 0.5, 0.1)
    grid = MarchGrid(np.linspace(-0.1, 0.1, 9), 32, chart.length)
    metric = ChartTubeMetric(chart, grid)
    level = metric.at(0.0)
    ss, tt = np.meshgrid(grid.theta_nodes, grid.z_nodes, indexing="xy")
    met = strip_metric(chart, ss, tt)
    assert np.max(np.abs(level.h11 - met.h_tt)) < 1e-10
    assert np.max(np.abs(level.h12 - met.h_st)) < 1e-8
    assert np.max(np.abs(level.h22 - met.h_ss)) < 1e-7
    # the circle strip normal is constant, so the metric is rho-independent
    off = metric.at(0.05)
    assert np.max(np.abs(off.h22 - level.h22)) < 1e-8


def test_march_reproduces_exact_expansion_on_circle_chart():
    # the pullback (u.X_z, u.X_theta) of an exact Beltrami expansion is an
    # exact solution of the marched system at every rho level; marching with
    # the opposite sign of lambda (the wrong orientation) must not match it
    arc = resample_arclength(presets.circle(1.0)[0], 512)
    chart = TubeChart(frame_transport(arc), 0.5, 0.05)
    w = chart.w_half
    grid = MarchGrid(np.linspace(-w, w, 17), 64, chart.length)
    metric = ChartTubeMetric(chart, grid)
    rng = np.random.default_rng(3)
    k, e = make_basis(6, rng)
    u = BeltramiExpansion(1.0, k, e, rng.standard_normal(6), rng.standard_normal(6))
    nj = chart.normal_jet(grid.theta_nodes[None, :], grid.z_nodes[:, None])

    def forms(rho):
        x_rho, x_z, x_th = chart_columns(nj, rho)
        v = u((nj["S"] + rho * x_rho).reshape(-1, 3)).reshape(x_z.shape)
        return np.stack([np.sum(v * x_z, axis=-1), np.sum(v * x_th, axis=-1)])

    a0 = forms(0.0)
    assert np.max(np.abs(a0)) > 1.0
    for lam, n_steps in ((1.0, 4), (1.0, 16), (-1.0, 8)):
        res = march(metric, lam, 0.2 * w, n_steps, grid=grid, a0=a0)
        err = max(np.max(np.abs(res.a[i] - forms(rho)))
                  for i, rho in enumerate(res.rhos))
        if lam > 0:
            assert err < 1e-7
        else:
            assert err > 1e-2
