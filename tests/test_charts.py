"""Tube charts: radii, the strip embedding, and the adapted coordinate map."""

import numpy as np
import pytest

from knotflows import presets
from knotflows.charts import TubeChart, build_charts, component_gaps, tube_radius
from knotflows.config import RunConfig
from knotflows.curves import (ArcLengthCurve, EmbeddingError, FourierCurve,
                              LinkSpec, SpectralSeries, resample_arclength)
from knotflows.framing import frame_transport


def _shifted_circle(z0: float) -> FourierCurve:
    return FourierCurve(np.array([[0.0, 0.0, z0], [1.0, 0.0, 0.0]]),
                        np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def _trefoil_chart():
    arc = resample_arclength(presets.trefoil()[0], 1024)
    radius = tube_radius([arc])[0]
    return TubeChart(frame_transport(arc), radius, 0.3 * radius)


def _circle_chart(radius=0.5, w_half=0.1, n=1024):
    arc = resample_arclength(presets.circle(1.0)[0], n)
    # radial seed makes the frame e1(s) = (cos s, sin s, 0) exactly
    return TubeChart(frame_transport(arc), radius, w_half)


def test_tube_radius_single_unit_circle():
    arc = resample_arclength(presets.circle(1.0)[0], 1024)
    r = tube_radius([arc], safety=0.5)
    assert abs(r[0] - 0.5) < 1e-6


def test_tube_radius_two_parallel_circles_limited_by_gap():
    arcs = [resample_arclength(_shifted_circle(0.0), 1024),
            resample_arclength(_shifted_circle(0.5), 1024)]
    r = tube_radius(arcs, safety=0.5)
    # gap 0.5 binds before the unit reach: r = 0.5 * (0.5 / 2)
    assert np.max(np.abs(r - 0.125)) < 1e-9


def test_tube_radius_hopf_symmetric():
    arcs = [resample_arclength(c, 1024) for c in presets.hopf()]
    r = tube_radius(arcs, safety=0.5)
    assert abs(r[0] - r[1]) < 1e-9
    assert abs(r[0] - 0.25) < 1e-3


def test_tube_radius_rejects_near_touching_components():
    arcs = [resample_arclength(_shifted_circle(0.0), 1024),
            resample_arclength(_shifted_circle(1e-4), 1024)]
    with pytest.raises(EmbeddingError, match="too close"):
        tube_radius(arcs)


def test_tube_radius_safety_validation():
    arc = resample_arclength(presets.circle(1.0)[0], 256)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            tube_radius([arc], safety=bad)


def test_component_gaps_coaxial_circles():
    arcs = [resample_arclength(_shifted_circle(0.0), 512),
            resample_arclength(_shifted_circle(2.0), 512)]
    gaps = component_gaps(arcs)
    assert gaps[0, 0] == np.inf
    assert abs(gaps[0, 1] - 2.0) < 1e-9
    assert gaps[0, 1] == gaps[1, 0]


def test_component_gaps_match_broadcast_sum_bitwise():
    arcs = [ArcLengthCurve(c, 1024) for c in presets.borromean()]
    gaps = component_gaps(arcs)
    for i in range(3):
        for j in range(3):
            if i != j:
                d2 = np.sum((arcs[i].points[:, None, :] - arcs[j].points[None, :, :]) ** 2,
                            axis=-1)
                assert gaps[i, j] == np.sqrt(np.min(d2))


def test_chart_invariant_w_half_bounded_by_radius():
    arc = resample_arclength(presets.circle(1.0)[0], 256)
    frame = frame_transport(arc)
    with pytest.raises(ValueError):
        TubeChart(frame, 0.5, 0.6)
    with pytest.raises(ValueError):
        TubeChart(frame, 0.5, 0.0)


def test_strip_embedding_of_radially_framed_circle():
    chart = _circle_chart()
    s = np.array([0.3, 1.7, 4.0])
    t = np.array([0.05, -0.02, 0.0])
    # S(s, t) = (1 + t)(cos s, sin s, 0) with the radial frame
    expect = (1.0 + t)[:, None] * np.column_stack(
        [np.cos(s), np.sin(s), np.zeros_like(s)])
    assert np.max(np.abs(chart.strip_point(s, t) - expect)) < 1e-8
    jet = chart.strip_jet(s, t)
    ss = (1.0 + t)[:, None] * np.column_stack(
        [-np.sin(s), np.cos(s), np.zeros_like(s)])
    assert np.max(np.abs(jet["S_s"] - ss)) < 1e-6
    assert np.max(np.abs(jet["S_t"] - chart.frame.e1(s))) < 1e-12
    n = chart.normal(s, t)
    assert np.max(np.abs(np.abs(n[:, 2]) - 1.0)) < 1e-8


def test_strip_jet_makes_one_series_evaluation(monkeypatch):
    chart = _trefoil_chart()
    calls = []
    call = SpectralSeries.__call__

    def counted(self, s, *args):
        calls.append(np.shape(s))
        return call(self, s, *args)

    monkeypatch.setattr(SpectralSeries, "__call__", counted)
    chart.strip_jet(1.3, np.array(0.01))
    assert calls == [()]
    calls.clear()
    s = np.linspace(0.0, chart.length, 5, endpoint=False)
    chart.strip_jet(s[:, None], np.linspace(-0.01, 0.01, 3)[None, :])
    assert calls == [(5, 1)]


def test_core_point_maps_to_origin_coordinates():
    chart = _circle_chart()
    s0 = 1.234
    got = chart.to_tube(np.array([np.cos(s0), np.sin(s0), 0.0]))
    assert got is not None
    rho, z, theta = got
    assert abs(rho) < 1e-9
    assert abs(z) < 1e-9
    assert abs(theta - s0) < 1e-9


def test_strip_and_normal_offsets_recovered():
    chart = _circle_chart()
    s0 = 2.5
    x = chart.strip_point(s0, np.array(0.06))
    rho, z, theta = chart.to_tube(x)
    assert abs(rho) < 1e-9 and abs(z - 0.06) < 1e-9 and abs(theta - s0) < 1e-9
    x = x + 0.2 * chart.normal(s0, np.array(0.06))
    rho, z, theta = chart.to_tube(x)
    assert abs(rho - 0.2) < 1e-9 and abs(z - 0.06) < 1e-9


def test_chart_round_trip_on_trefoil():
    arc = resample_arclength(presets.trefoil()[0], 1024)
    radius = tube_radius([arc])[0]
    chart = TubeChart(frame_transport(arc), radius, 0.3 * radius)
    rng = np.random.default_rng(3)
    rho = rng.uniform(-0.6 * radius, 0.6 * radius, 20)
    z = rng.uniform(-0.25 * radius, 0.25 * radius, 20)
    theta = rng.uniform(0.0, chart.length, 20)
    pts = chart.from_tube(rho, z, theta)
    back = chart.to_tube_many(pts)
    assert not np.any(np.isnan(back))
    assert np.max(np.abs(back[:, 0] - rho)) < 1e-9
    assert np.max(np.abs(back[:, 1] - z)) < 1e-9
    dth = np.abs(back[:, 2] - theta)
    assert np.max(np.minimum(dth, chart.length - dth)) < 1e-9


def test_to_tube_skips_sheets_beyond_the_tube(monkeypatch):
    # the trefoil's other strands are local minima of the core distance too;
    # Newton toward them cannot end in the chart, so it must not run
    chart = _trefoil_chart()
    rng = np.random.default_rng(3)
    r = chart.radius
    pts = chart.from_tube(rng.uniform(-0.6 * r, 0.6 * r, 20),
                          rng.uniform(-0.25 * r, 0.25 * r, 20),
                          rng.uniform(0.0, chart.length, 20))
    jets = []
    strip_jet = TubeChart.strip_jet

    def counted(self, s, t):
        jets.append(1)
        return strip_jet(self, s, t)

    monkeypatch.setattr(TubeChart, "strip_jet", counted)
    for x in pts:
        assert chart.to_tube(x) is not None
    assert len(jets) <= 20 * len(pts)


def test_chart_frame_is_right_handed_on_trefoil():
    chart = _trefoil_chart()
    rng = np.random.default_rng(5)
    r = chart.radius
    cols = chart.chart_jacobian(rng.uniform(-0.6 * r, 0.6 * r, 50),
                                rng.uniform(-chart.w_half, chart.w_half, 50),
                                rng.uniform(0.0, chart.length, 50))
    det = np.linalg.det(np.stack(cols, axis=-1))
    assert np.all(det > 0.0)


def test_points_outside_chart_return_none():
    chart = _circle_chart(radius=0.5, w_half=0.1)
    # ruling coordinate beyond the strip half-width
    assert chart.to_tube(chart.strip_point(1.0, np.array(0.15))) is None
    # normal offset at the tube boundary
    x = chart.from_tube(np.array(0.0), np.array(0.0), np.array(1.0))
    assert chart.to_tube(x + 0.6 * chart.normal(1.0, np.array(0.0))) is None
    # far away
    assert chart.to_tube(np.array([10.0, 10.0, 10.0])) is None
    # the circle's center is equidistant from every sheet
    assert chart.to_tube(np.zeros(3)) is None


def test_chart_jacobian_matches_finite_differences():
    arc = resample_arclength(presets.trefoil()[0], 1024)
    chart = TubeChart(frame_transport(arc), 0.1, 0.03)
    rho, z, theta = 0.04, -0.01, 2.2
    cols = chart.chart_jacobian(np.array(rho), np.array(z), np.array(theta))
    h = 1e-6
    args = np.array([rho, z, theta])
    for i in range(3):
        dp, dm = args.copy(), args.copy()
        dp[i] += h
        dm[i] -= h
        fd = (chart.from_tube(np.array(dp[0]), np.array(dp[1]), np.array(dp[2]))
              - chart.from_tube(np.array(dm[0]), np.array(dm[1]), np.array(dm[2]))) / (2 * h)
        assert np.max(np.abs(cols[i] - fd)) < 1e-6


def test_build_charts_uses_config_factors():
    cfg = RunConfig(w_half_factor=0.1, frame_samples=512)
    charts = build_charts(LinkSpec(1.0, tuple(presets.hopf())), cfg)
    assert len(charts) == 2
    assert [c.component_id for c in charts] == [0, 1]
    for c in charts:
        assert abs(c.w_half - 0.1 * c.radius) < 1e-12


def test_build_charts_inverts_arc_length_and_reads_curvature_once(monkeypatch):
    calls = {"t_at": 0, "max_curvature": 0}
    t_at, max_curvature = ArcLengthCurve.t_at, FourierCurve.max_curvature

    def counted_t_at(self, s):
        calls["t_at"] += 1
        return t_at(self, s)

    def counted_max_curvature(self, *args, **kwargs):
        calls["max_curvature"] += 1
        return max_curvature(self, *args, **kwargs)

    monkeypatch.setattr(ArcLengthCurve, "t_at", counted_t_at)
    monkeypatch.setattr(FourierCurve, "max_curvature", counted_max_curvature)
    charts = build_charts(LinkSpec(1.0, tuple(presets.hopf())), RunConfig(frame_samples=512))
    assert len(charts) == 2
    # one inversion and one curvature scan per component
    assert calls == {"t_at": 2, "max_curvature": 2}
