"""Tube charts: radii, the strip embedding, and the adapted coordinate map."""

import numpy as np
import pytest

from knotflows import charts, presets
from knotflows.charts import (TubeChart, build_charts, chart_columns, component_gaps,
                              tube_radius)
from knotflows.config import RunConfig
from knotflows.curves import (ArcLengthCurve, EmbeddingError, FourierCurve,
                              LinkSpec, SpectralSeries, resample_arclength)
from knotflows.dynamics import OrbitEscape
from knotflows.framing import frame_transport
from knotflows.paper import TubeModelField


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


def _ellipse_chart():
    return build_charts(LinkSpec(1.0, (presets.borromean(8.0)[0],)))[0]


def _hopf_chart():
    # the first component of the hopf benchmark workload
    return build_charts(LinkSpec(1.0, tuple(presets.hopf(radius=14.0))),
                        RunConfig(w_half_factor=0.01))[0]


def _reference_project(chart, x, s0, t0):
    """The damped one-point oracle: Newton with up to 8 step halvings that must
    not increase the residual, every step after the first."""

    def residual(s, t):
        jet = chart.strip_jet(s, np.array(t))
        d = x - jet["S"]
        return jet, d, np.array([np.dot(d, jet["S_s"]), np.dot(d, jet["e1"])])

    s, t = float(s0), float(t0)
    tol = 1e-13 * max(1.0, float(np.linalg.norm(x)))
    jet, d, f = residual(s, t)
    for it in range(40):
        if np.linalg.norm(f) < tol:
            return s % chart.length, t, jet, True
        j11 = -np.dot(jet["S_s"], jet["S_s"]) + np.dot(d, jet["S_ss"])
        j12 = np.dot(d, jet["de1"])
        jac = np.array([[j11, j12], [j12, -1.0]])
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return s % chart.length, t, jet, False
        lam = 1.0
        for _ in range(8):
            s_new, t_new = s + lam * step[0], t + lam * step[1]
            t_new = float(np.clip(t_new, -4.0 * chart.w_half, 4.0 * chart.w_half))
            jet_new, d_new, f_new = residual(s_new, t_new)
            if it == 0 or np.linalg.norm(f_new) <= np.linalg.norm(f):
                break
            lam *= 0.5
        s, t, jet, d, f = s_new, t_new, jet_new, d_new, f_new
    return s % chart.length, t, jet, bool(np.linalg.norm(f) < 1e3 * tol)


def _reference_to_tube(chart, x):
    """(rho, z, theta) of one point by per-candidate Newton, nan when out of chart."""
    pts = chart.frame.arc.points
    d2 = np.sum((pts - x) ** 2, axis=1)
    reach = chart.radius + 4.0 * chart.w_half + chart.length / len(pts)
    is_min = (d2 <= np.roll(d2, 1)) & (d2 <= np.roll(d2, -1)) & (d2 <= reach**2)
    cand = np.flatnonzero(is_min)
    cand = cand[np.argsort(d2[cand])][:4]
    e1s = chart.frame.jet(chart.frame.arc.s_nodes[cand])[1][:, 0]
    sols = []
    for i, e1 in zip(cand, e1s):
        t0 = float(np.clip(np.dot(x - pts[i], e1), -chart.w_half, chart.w_half))
        s, t, jet, ok = _reference_project(chart, x, chart.frame.arc.s_nodes[i], t0)
        if ok:
            sols.append((float(np.linalg.norm(x - jet["S"])), s, t, jet))
    out = np.full(3, np.nan)
    if not sols:
        return out
    sols.sort(key=lambda sol: sol[:3])
    dist, s, t, jet = sols[0]
    for d2_, s2, t2, _ in sols[1:]:
        same = (min(abs(s2 - s), chart.length - abs(s2 - s)) < 1e-6 * chart.length
                and abs(t2 - t) < 1e-6 * max(chart.w_half, 1.0))
        if not same and d2_ <= dist * (1.0 + 1e-9) + 1e-12:
            return out
    if abs(t) > chart.w_half:
        return out
    rho = float(np.dot(x - jet["S"], charts._normal_jet(jet)["n"]))
    if abs(rho) < chart.radius:
        out[:] = rho, t, s
    return out


def _oracle_points(chart, rng, k=50):
    """k points each in chart, beyond the strip edge, beyond the tube wall,
    beyond the candidate reach and near the core's centroid, then 10 far
    away and the centroid itself."""
    r, w, L = chart.radius, chart.w_half, chart.length
    reach = r + 4.0 * w + L / len(chart.frame.arc.points)
    sign = rng.choice([-1.0, 1.0], size=(3, k))

    def around(rho, z):
        return chart.from_tube(rho, z, rng.uniform(0.0, L, k))

    far = rng.normal(size=(10, 3))
    far *= 3.0 * L / np.linalg.norm(far, axis=1, keepdims=True)
    centre = chart.frame.arc.points.mean(axis=0)
    return np.vstack([
        around(rng.uniform(-0.9 * r, 0.9 * r, k), rng.uniform(-0.9 * w, 0.9 * w, k)),
        around(rng.uniform(-0.5 * r, 0.5 * r, k), sign[0] * rng.uniform(1.05 * w, 3.0 * w, k)),
        around(sign[1] * rng.uniform(r, r + 2.0 * w, k), rng.uniform(-0.5 * w, 0.5 * w, k)),
        around(sign[2] * rng.uniform(1.01 * reach, 1.5 * reach, k), np.zeros(k)),
        centre + rng.normal(scale=0.5 * w, size=(k, 3)), centre + far, centre])


def test_tube_radius_single_unit_circle():
    arc = resample_arclength(presets.circle(1.0)[0], 1024)
    r = tube_radius([arc])
    assert abs(r[0] - 0.5) < 1e-6


def test_tube_radius_two_parallel_circles_limited_by_gap():
    arcs = [resample_arclength(_shifted_circle(0.0), 1024),
            resample_arclength(_shifted_circle(0.5), 1024)]
    r = tube_radius(arcs)
    # gap 0.5 binds before the unit reach: r = 0.5 * (0.5 / 2)
    assert np.max(np.abs(r - 0.125)) < 1e-9


def test_tube_radius_hopf_symmetric():
    arcs = [resample_arclength(c, 1024) for c in presets.hopf()]
    r = tube_radius(arcs)
    assert abs(r[0] - r[1]) < 1e-9
    assert abs(r[0] - 0.25) < 1e-3


def test_tube_radius_rejects_near_touching_components():
    arcs = [resample_arclength(_shifted_circle(0.0), 1024),
            resample_arclength(_shifted_circle(1e-4), 1024)]
    with pytest.raises(EmbeddingError, match="too close"):
        tube_radius(arcs)


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


def test_chart_must_lie_within_the_core_reach():
    # the 2:1 ellipse of major 8 has reach 2 (its curvature at the major vertices)
    arc = resample_arclength(presets.borromean(8.0)[0], 1024)
    frame = frame_transport(arc)
    with pytest.raises(ValueError, match=r"radius \+ w_half = 4\.6 > reach = 2\b"):
        TubeChart(frame, 4.5, 0.1)
    with pytest.raises(ValueError, match="reach"):
        TubeChart(frame, np.inf, 0.1)
    # radius + w_half = reach is accepted, one ulp of the reach more is not;
    # the sampled reach of the unit circle is 1 - 2**-52, so halve it, not 1
    circle = frame_transport(resample_arclength(presets.circle(1.0)[0], 256))
    half = 0.5 * circle.arc.reach()
    assert TubeChart(circle, half, half).radius == half
    above = np.nextafter(half, 1.0)
    with pytest.raises(ValueError, match="reach"):
        TubeChart(circle, above, above)


@pytest.mark.parametrize("w_half_factor", [0.014, 1.0])
def test_build_charts_lie_within_the_core_reach_for_every_preset(w_half_factor):
    ratios = []
    for make in presets.CATALOG.values():
        for chart in build_charts(LinkSpec(1.0, tuple(make())),
                                  RunConfig(w_half_factor=w_half_factor)):
            ratios.append((chart.radius + chart.w_half) / chart.frame.arc.reach())
    # radius <= reach / 2 and w_half = w_half_factor * radius
    assert max(ratios) <= 0.5 * (1.0 + w_half_factor) + 1e-12


def test_strip_embedding_of_radially_framed_circle():
    chart = _circle_chart()
    s = np.array([0.3, 1.7, 4.0])
    t = np.array([0.05, -0.02, 0.0])
    # S(s, t) = (1 + t)(cos s, sin s, 0) with the radial frame
    expect = (1.0 + t)[:, None] * np.column_stack(
        [np.cos(s), np.sin(s), np.zeros_like(s)])
    jet = chart.strip_jet(s, t)
    assert np.max(np.abs(jet["S"] - expect)) < 1e-8
    ss = (1.0 + t)[:, None] * np.column_stack(
        [-np.sin(s), np.cos(s), np.zeros_like(s)])
    assert np.max(np.abs(jet["S_s"] - ss)) < 1e-6
    assert np.max(np.abs(jet["S_t"] - chart.frame.jet(s)[1][:, 0])) < 1e-12
    n = chart.normal_jet(s, t)["n"]
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
    got = chart.to_tube_many(np.array([[np.cos(s0), np.sin(s0), 0.0]]))[0]
    assert not np.any(np.isnan(got))
    rho, z, theta = got
    assert abs(rho) < 1e-9
    assert abs(z) < 1e-9
    assert abs(theta - s0) < 1e-9


def test_strip_and_normal_offsets_recovered():
    chart = _circle_chart()
    s0 = 2.5
    x = chart.strip_jet(s0, np.array(0.06))["S"]
    rho, z, theta = chart.to_tube_many(x[None])[0]
    assert abs(rho) < 1e-9 and abs(z - 0.06) < 1e-9 and abs(theta - s0) < 1e-9
    x = x + 0.2 * chart.normal_jet(s0, np.array(0.06))["n"]
    rho, z, theta = chart.to_tube_many(x[None])[0]
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


def _assert_same_coords(chart, got, want):
    """Same out-of-chart rows, and coordinates within 1e-12 max(1, length)."""
    out = np.isnan(want[:, 0])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    diff = np.abs(got[~out] - want[~out])
    diff[:, 2] = np.minimum(diff[:, 2], chart.length - diff[:, 2])
    assert np.max(diff) < 1e-12 * max(1.0, chart.length)


@pytest.mark.parametrize("make_chart", [_trefoil_chart, _ellipse_chart, _circle_chart,
                                        _hopf_chart])
def test_to_tube_many_matches_the_one_point_reference(make_chart):
    chart = make_chart()
    pts = _oracle_points(chart, np.random.default_rng(11))
    got = chart.to_tube_many(pts)
    want = np.array([_reference_to_tube(chart, x) for x in pts])
    out = np.isnan(want[:, 0])
    # in-chart points stay in, strip-edge points leave, and so does the
    # centroid, beyond reach: the multi-candidate reference agrees with one seed
    assert not np.any(out[:50]) and np.all(out[50:100]) and out[-1]
    _assert_same_coords(chart, got, want)


def test_to_tube_many_batch_equals_one_point_calls():
    chart = _trefoil_chart()
    pts = _oracle_points(chart, np.random.default_rng(12), k=80)
    one = np.array([chart.to_tube_many(x[None])[0] for x in pts])
    # not bitwise: the series matmul may round a batch row and a lone row apart
    _assert_same_coords(chart, chart.to_tube_many(pts), one)


def test_to_tube_many_strip_jet_calls_do_not_grow_with_points(monkeypatch):
    chart = _trefoil_chart()
    pts = _oracle_points(chart, np.random.default_rng(13), k=120)[:500]
    calls = []
    strip_jet = TubeChart.strip_jet

    def counted(self, s, t):
        calls.append(1)
        return strip_jet(self, s, t)

    monkeypatch.setattr(TubeChart, "strip_jet", counted)
    chart.to_tube_many(pts)
    # the first residual, one per iteration for at most 40 iterations, the final jet
    assert len(calls) <= 1 + 40 + 1


def test_to_tube_many_settles_every_row_in_a_few_strip_jets(monkeypatch):
    # every row of the batch above either falls beyond the cutoff or converges
    # in s within a few steps, those beyond the strip edge before the |z| gate
    # rejects them, and the batch agrees with the damped reference, which runs
    # its rows pinned at its own t-clip to its cap
    chart = _trefoil_chart()
    pts = _oracle_points(chart, np.random.default_rng(13), k=120)[:500]
    want = np.array([_reference_to_tube(chart, x) for x in pts])
    calls = []
    strip_jet = TubeChart.strip_jet

    def counted(self, s, t):
        calls.append(1)
        return strip_jet(self, s, t)

    monkeypatch.setattr(TubeChart, "strip_jet", counted)
    got = chart.to_tube_many(pts)
    assert len(calls) <= 8
    _assert_same_coords(chart, got, want)


@pytest.mark.parametrize("make_chart", [_trefoil_chart, _ellipse_chart, _hopf_chart])
def test_newton_in_s_lands_on_the_closest_strip_point(make_chart):
    # the ruling coordinate is closed-form, so at a converged row x - S is
    # normal to both e1 and S_s, and t is (x - c(s)) . e1(s)
    chart = make_chart()
    pts = _oracle_points(chart, np.random.default_rng(14))
    i = chart._core_tree.query(pts)[1]
    s, t, ok = chart._newton(pts, chart.frame.arc.s_nodes[i])
    assert ok[:150].all()
    x, s, t = pts[ok], s[ok], t[ok]
    jet = chart.strip_jet(s, t)
    scale = 1e-12 * np.maximum(1.0, np.linalg.norm(x, axis=1))
    assert np.all(np.abs(np.sum((x - jet["S"]) * jet["e1"], axis=1)) < scale)
    assert np.all(np.abs(np.sum((x - jet["S"]) * jet["S_s"], axis=1)) < scale)
    c, e = chart.frame.jet(s)
    assert np.all(np.abs(t - np.sum((x - c[:, 0]) * e[:, 0], axis=1)) < scale)


@pytest.mark.parametrize("make_chart", [_trefoil_chart, _ellipse_chart, _circle_chart,
                                        _hopf_chart])
def test_chart_box_corners_lie_within_the_cutoff(make_chart):
    # a box point (rho, z, theta) is hypot(rho, z) from c(theta), so the box's
    # corners are within hypot(radius, w_half) plus one sample step of a sample
    chart = make_chart()
    r, w, L = chart.radius, chart.w_half, chart.length
    n = len(chart.frame.arc.points)
    sign = np.array([(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]).repeat(16, axis=0)
    rho, z = sign[:, 0] * (1.0 - 1e-9) * r, sign[:, 1] * w
    theta = np.tile(np.arange(16) * L / 16 + 0.1, 4)
    pts = chart.from_tube(rho, z, theta)
    d, i = chart._core_tree.query(pts)
    assert np.all(d < np.hypot(r, w) + L / n)
    s, t, ok = chart._newton(pts, chart.frame.arc.s_nodes[i])
    assert ok.all() and np.max(np.abs(t - z)) < 1e-12 * max(1.0, L)
    ds = np.abs(s - theta) % L
    assert np.max(np.minimum(ds, L - ds)) < 1e-12 * max(1.0, L)
    # a hair inside the strip edge every corner is in chart (on the edge: below)
    got = chart.to_tube_many(chart.from_tube(rho, (1.0 - 1e-9) * z, theta))
    assert not np.any(np.isnan(got))
    assert np.max(np.abs(got[:, 0] - rho)) < 1e-12 * max(1.0, L)


@pytest.mark.parametrize("make_chart", [_trefoil_chart, _ellipse_chart, _circle_chart,
                                        _hopf_chart])
def test_chart_box_corners_on_the_strip_edge_round_trip(make_chart):
    # Newton's t may round a few ulp of w_half past the edge; those rows are on
    # the strip at z = +-w_half, so margin_z cannot go negative, while a point
    # 1e-9 w_half past the edge stays out of chart
    chart = make_chart()
    r, w, L = chart.radius, chart.w_half, chart.length
    sign = np.array([(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]).repeat(16, axis=0)
    rho, z = sign[:, 0] * (1.0 - 1e-9) * r, sign[:, 1] * w
    theta = np.tile(np.arange(16) * L / 16 + 0.1, 4)
    got = chart.to_tube_many(chart.from_tube(rho, z, theta))
    assert not np.any(np.isnan(got))
    assert np.max(np.abs(got[:, 1])) <= w
    assert np.max(np.abs(got[:, 0] - rho)) < 1e-12 * max(1.0, L)
    assert np.max(np.abs(got[:, 1] - z)) < 1e-12 * max(1.0, L)
    dth = np.abs(got[:, 2] - theta % L)
    assert np.max(np.minimum(dth, L - dth)) < 1e-12 * max(1.0, L)
    beyond = chart.to_tube_many(chart.from_tube(rho, (1.0 + 1e-9) * z, theta))
    assert np.all(np.isnan(beyond))


def test_to_tube_many_maps_non_finite_rows_to_nan():
    chart = _trefoil_chart()
    inside = chart.from_tube(np.array([0.1, -0.2]) * chart.radius,
                             np.array([0.3, -0.1]) * chart.w_half, np.array([1.0, 4.0]))
    bad = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0]])
    pts = np.vstack([bad[:1], inside[:1], bad[1:], inside[1:]])
    got = chart.to_tube_many(pts)
    assert np.all(np.isnan(got[[0, 2, 3]]))
    assert np.array_equal(got[[1, 4]], chart.to_tube_many(inside))
    with pytest.raises(OrbitEscape):
        TubeModelField(chart)(pts)


def test_to_tube_skips_sheets_beyond_the_tube(monkeypatch):
    # the trefoil's other strands are local minima of the core distance too;
    # Newton toward them cannot end in the chart, so it must not run
    chart = _trefoil_chart()
    rng = np.random.default_rng(3)
    r = chart.radius
    pts = chart.from_tube(rng.uniform(-0.6 * r, 0.6 * r, 20),
                          rng.uniform(-0.25 * r, 0.25 * r, 20),
                          rng.uniform(0.0, chart.length, 20))
    values = []
    strip_jet = TubeChart.strip_jet

    def counted(self, s, t):
        values.append(np.broadcast(s, t).size)
        return strip_jet(self, s, t)

    monkeypatch.setattr(TubeChart, "strip_jet", counted)
    assert not np.any(np.isnan(chart.to_tube_many(pts)))
    # (s, t) values, not calls: one call serves every pair of the batch
    assert sum(values) <= 20 * len(pts)


def test_chart_frame_is_right_handed_on_trefoil():
    chart = _trefoil_chart()
    rng = np.random.default_rng(5)
    r = chart.radius
    rho = rng.uniform(-0.6 * r, 0.6 * r, 50)
    z = rng.uniform(-chart.w_half, chart.w_half, 50)
    theta = rng.uniform(0.0, chart.length, 50)
    cols = chart_columns(chart.normal_jet(theta, z), rho)
    det = np.linalg.det(np.stack(cols, axis=-1))
    assert np.all(det > 0.0)


def test_points_outside_chart_return_none():
    chart = _circle_chart(radius=0.5, w_half=0.1)

    def out(x):
        return np.all(np.isnan(chart.to_tube_many(np.reshape(x, (1, 3)))))

    # ruling coordinate beyond the strip half-width
    assert out(chart.strip_jet(1.0, np.array(0.15))["S"])
    # normal offset at the tube boundary
    x = chart.from_tube(np.array(0.0), np.array(0.0), np.array(1.0))
    assert out(x + 0.6 * chart.normal_jet(1.0, np.array(0.0))["n"])
    # far away
    assert out(np.array([10.0, 10.0, 10.0]))
    # the circle's center is beyond the candidate reach
    assert out(np.zeros(3))


def test_chart_jacobian_matches_finite_differences():
    arc = resample_arclength(presets.trefoil()[0], 1024)
    chart = TubeChart(frame_transport(arc), 0.1, 0.03)
    rho, z, theta = 0.04, -0.01, 2.2
    cols = chart_columns(chart.normal_jet(np.array(theta), np.array(z)), np.array(rho))
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
