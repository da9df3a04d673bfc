"""Linking numbers, confinement certificates, and the Hausdorff bound to the core."""

from functools import lru_cache

import numpy as np
import pytest

from knotflows import presets, topology
from knotflows.charts import TubeChart
from knotflows.curves import resample_arclength
from knotflows.framing import frame_transport
from knotflows.topology import LinkingError, linking_number, tube_confinement

from conftest import crossing_count_linking, traced_peak


def _points(curve, n=256):
    return resample_arclength(curve, n).points


@lru_cache(maxsize=None)
def _hopf_cores():
    """The two 1,024-vertex cores of the radius-14 Hopf link that verify reads."""
    return tuple(_points(c, 1024) for c in presets.hopf(radius=14.0))


def _reference_gauss_midpoint(a, b):
    """The whole-table broadcast of the midpoint Gauss sum, kept as its oracle."""
    ta = np.diff(np.vstack([a, a[:1]]), axis=0)
    tb = np.diff(np.vstack([b, b[:1]]), axis=0)
    ma = a + 0.5 * ta
    mb = b + 0.5 * tb
    r = ma[:, None, :] - mb[None, :, :]
    dist3 = np.sum(r * r, axis=-1) ** 1.5
    cross = np.cross(ta[:, None, :], tb[None, :, :])
    triple = np.sum(cross * r, axis=-1)
    return float(np.sum(triple / dist3) / (4.0 * np.pi))


def _reference_point_segment_distances(points, poly):
    """Distance from each point to the closed polyline, every point against
    every segment, in blocks of at most 2**18 point-segment pairs."""
    a = poly
    b = np.vstack([poly[1:], poly[:1]])
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    block = max(1, 2**18 // len(poly))
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], block):
        p = points[lo:lo + block]
        ap = p[:, None, :] - a[None, :, :]
        tproj = np.clip(np.einsum("pik,ik->pi", ap, ab) / denom, 0.0, 1.0)
        closest = a[None] + tproj[..., None] * ab[None]
        out[lo:lo + block] = np.min(np.linalg.norm(p[:, None, :] - closest, axis=-1), axis=1)
    return out


def _reference_hausdorff(a, b):
    """Symmetric Hausdorff distance between two closed polylines."""
    return float(max(_reference_point_segment_distances(a, b).max(),
                     _reference_point_segment_distances(b, a).max()))


def _sag(arc, n):
    """The bound's chord term for n equal steps around the arc-length core."""
    return (arc.length / n) ** 2 / (8.0 * arc.reach())


def _circle_chart(w_half=0.1):
    arc = resample_arclength(presets.circle(1.0)[0], 512)
    return TubeChart(frame_transport(arc), 0.5, w_half)


def test_distant_circles_are_unlinked():
    a = _points(presets.circle(1.0)[0])
    b = _points(presets.circle(1.0)[0]) + np.array([0.0, 0.0, 5.0])
    got = linking_number(a, b)
    assert got.link == 0
    assert abs(got.raw) < 1e-3


def test_hopf_linking_matches_crossing_oracle():
    c1, c2 = presets.hopf()
    a, b = _points(c1), _points(c2)
    got = linking_number(a, b)
    assert abs(got.link) == 1
    assert got.defect < 1e-3
    rng = np.random.default_rng(2)
    assert got.link == crossing_count_linking(a, b, rng)


def test_orientation_reversal_flips_sign():
    c1, c2 = presets.hopf()
    a, b = _points(c1), _points(c2)
    direct = linking_number(a, b).link
    flipped = linking_number(a, b[::-1]).link
    assert flipped == -direct


def test_borromean_pairwise_linking_zero():
    curves = [_points(c) for c in presets.borromean()]
    rng = np.random.default_rng(5)
    for i in range(3):
        for j in range(i + 1, 3):
            got = linking_number(curves[i], curves[j])
            assert got.link == 0
            assert got.defect < 1e-2
            assert crossing_count_linking(curves[i], curves[j], rng) == 0


def test_linking_guard_rejects_near_touching_curves():
    a = _points(presets.circle(1.0)[0], n=64)
    b = a + np.array([0.0, 0.0, 0.05])
    with pytest.raises(LinkingError, match="too close"):
        linking_number(a, b)


def test_linking_defect_guard():
    c1, c2 = presets.hopf()
    with pytest.raises(LinkingError, match="defect"):
        linking_number(_points(c1, 96), _points(c2, 96),
                       defect_tol=1e-9, max_refinements=0)


def test_polyline_validation():
    with pytest.raises(ValueError, match="n >= 3"):
        linking_number(np.zeros((2, 3)), np.ones((4, 3)))
    bad = np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]])
    good = _points(presets.circle(1.0)[0]) + 5.0
    with pytest.raises(ValueError, match="duplicate"):
        linking_number(bad, good)
    nan = good.copy()
    nan[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        linking_number(nan, good - 10.0)


def test_core_is_confined_with_winding_one():
    chart = _circle_chart()
    cert = tube_confinement(chart.frame.arc.points, chart)
    assert cert.confined
    assert cert.winding == 1
    assert abs(cert.margin_rho - chart.radius) < 1e-9
    assert abs(cert.margin_z - chart.w_half) < 1e-9
    assert cert.witness is None
    # the core's own samples read the chord sag alone
    assert cert.hausdorff == pytest.approx(_sag(chart.frame.arc, 512), rel=1e-9)


def test_doubled_cable_has_winding_two():
    chart = _circle_chart()
    t = np.linspace(0.0, 4.0 * np.pi, 512, endpoint=False)
    r = 1.0 + 0.01 * np.cos(0.5 * t)
    cable = np.column_stack([r * np.cos(t), r * np.sin(t),
                             0.01 * np.sin(0.5 * t)])
    cert = tube_confinement(cable, chart)
    assert cert.confined
    assert cert.winding == 2


def test_transverse_loop_has_winding_zero():
    chart = _circle_chart()
    psi = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    loop = np.column_stack([1.0 + 0.05 * np.cos(psi), np.zeros_like(psi),
                            0.05 * np.sin(psi)])
    cert = tube_confinement(loop, chart)
    assert cert.confined
    assert cert.winding == 0
    assert cert.hausdorff == np.inf


def test_confinement_is_monotone_in_the_declared_tube():
    chart = _circle_chart()
    s = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    # constant normal offset rho = 0.05
    pts = np.column_stack([np.cos(s), np.sin(s), -0.05 * np.ones_like(s)])
    assert tube_confinement(pts, chart).confined
    shrunk = tube_confinement(pts, TubeChart(chart.frame, 0.03, 0.03))
    assert not shrunk.confined
    assert shrunk.witness is not None
    assert shrunk.winding == 0


def test_escaping_polyline_not_confined():
    chart = _circle_chart(w_half=0.1)
    s = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    pts = np.column_stack([1.15 * np.cos(s), 1.15 * np.sin(s), np.zeros_like(s)])
    cert = tube_confinement(pts, chart)
    assert not cert.confined
    assert cert.witness is not None
    assert cert.hausdorff == np.inf


def _brute_hausdorff(a, b):
    """Symmetric Hausdorff distance, one point and one segment at a time."""
    def one_sided(points, poly):
        worst = 0.0
        for p in points:
            best = np.inf
            for i in range(len(poly)):
                s0, s1 = poly[i], poly[(i + 1) % len(poly)]
                t = min(max(np.dot(p - s0, s1 - s0) / np.dot(s1 - s0, s1 - s0), 0.0), 1.0)
                best = min(best, float(np.linalg.norm(p - (s0 + t * (s1 - s0)))))
            worst = max(worst, best)
        return worst
    return max(one_sided(a, b), one_sided(b, a))


def test_reference_hausdorff_matches_brute_force():
    rng = np.random.default_rng(3)
    c = _points(presets.circle(1.0)[0], 150) + rng.normal(0.0, 0.05, (150, 3))
    d = _points(presets.circle(1.2)[0], 97)
    assert _reference_hausdorff(c, d) == pytest.approx(_brute_hausdorff(c, d), rel=1e-12)


def test_chart_offset_is_the_distance_to_the_core_point():
    # X = c(theta) + z e1 + rho n with e1 and n orthonormal, so the bound's
    # hypot(rho, z) is |X - c(theta)|
    arc = resample_arclength(presets.trefoil()[0], 1024)
    chart = TubeChart(frame_transport(arc), 0.1, 0.03)
    rng = np.random.default_rng(9)
    x = chart.from_tube(rng.uniform(-0.05, 0.05, 64), rng.uniform(-0.02, 0.02, 64),
                        rng.uniform(0.0, chart.length, 64))
    coords = chart.to_tube_many(x)
    direct = np.linalg.norm(x - chart.frame.position(coords[:, 2]), axis=1)
    assert np.max(np.abs(np.hypot(coords[:, 0], coords[:, 1]) - direct)) < 1e-13


def test_hausdorff_identical_and_concentric():
    chart = _circle_chart()
    a = chart.frame.arc.points
    sag = _sag(chart.frame.arc, len(a))
    assert tube_confinement(a, chart).hausdorff == pytest.approx(sag, rel=1e-9)
    # a concentric circle in the strip plane lies at z = +-0.05
    assert tube_confinement(1.05 * a, chart).hausdorff == pytest.approx(0.05 + sag, rel=1e-9)


def test_hausdorff_detects_local_bump():
    chart = _circle_chart()
    theta = np.linspace(0.0, chart.length, 256, endpoint=False)
    rho = np.zeros_like(theta)
    rho[17] = 0.05
    cert = tube_confinement(chart.from_tube(rho, np.zeros_like(theta), theta), chart)
    assert cert.confined and cert.winding == 1
    assert 0.05 <= cert.hausdorff <= 0.05 + _sag(chart.frame.arc, 256) + 1e-12


def test_hausdorff_is_inf_when_theta_steps_back():
    # confined with winding 1, but one step runs backwards along the core,
    # so the arcs between samples no longer cover it once
    chart = _circle_chart()
    theta = np.linspace(0.0, chart.length, 256, endpoint=False)
    theta[[40, 41]] = theta[[41, 40]]
    zero = np.zeros_like(theta)
    cert = tube_confinement(chart.from_tube(zero, zero, theta), chart)
    assert cert.confined and cert.winding == 1
    assert cert.hausdorff == np.inf


@pytest.mark.parametrize("run", ["unknot_run", "hopf_run", "trefoil_run", "borromean_run"])
def test_hausdorff_bound_covers_the_polyline_distance(run, request):
    # the reported bound is at least the orbit polyline's distance to the
    # exact core sampled at 4,096 parameters, less that polyline's own sag
    fixture = request.getfixturevalue(run)
    components = fixture["link"].components
    t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    for comp, curve, orbit in zip(fixture["report"]["components"], components,
                                  fixture["outcome"].orbits):
        step = np.max(curve.speed(t)) * (t[1] - t[0])
        sag = step**2 / (8.0 * resample_arclength(curve, 1024).reach())
        dense = curve.point(t)
        assert comp["hausdorff"] >= _reference_hausdorff(orbit.points, dense) - sag


def test_gauss_kernel_matches_broadcast_reference():
    a, b = _hopf_cores()
    assert abs(topology._gauss_midpoint(a, b) - _reference_gauss_midpoint(a, b)) < 1e-12
    ring = [_points(c) for c in presets.borromean()]
    assert abs(topology._gauss_midpoint(ring[0], ring[1])
               - _reference_gauss_midpoint(ring[0], ring[1])) < 1e-12


def test_gauss_kernel_matches_reference_on_refined_polygons(monkeypatch):
    # the 96-vertex unit Hopf link has defect 7.1e-4, then 1.8e-4 and 4.5e-5
    # after each refinement, so a 4e-4 tolerance refines twice
    seen = []
    kernel = topology._gauss_midpoint

    def record(a, b):
        seen.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(topology, "_gauss_midpoint", record)
    c1, c2 = presets.hopf()
    linking_number(_points(c1, 96), _points(c2, 96), defect_tol=4e-4)
    assert [len(a) for a, _ in seen] == [96, 192, 384]
    for a, b in seen:
        assert abs(kernel(a, b) - _reference_gauss_midpoint(a, b)) < 1e-12


def test_linking_memory_is_bounded_by_its_block():
    # the whole-table broadcast built (1024, 1024, 3) temporaries: 88 MiB
    a, b = _hopf_cores()
    got, peak = traced_peak(linking_number, a, b)
    assert abs(got.link) == 1
    assert peak < 16 * 2**20


def test_hausdorff_memory_is_bounded_by_its_block():
    # the bound reads the confinement's one chart projection, which holds no
    # table larger than its 256-point block against the 1,024 core samples
    curve = presets.hopf(radius=14.0)[0]
    arc = resample_arclength(curve, 1024)
    chart = TubeChart(frame_transport(arc), 3.5, 0.035)
    orbit = _points(curve, 512) + np.array([0.0, 0.0, 1e-3])
    cert, peak = traced_peak(tube_confinement, orbit, chart)
    assert cert.hausdorff == pytest.approx(1e-3 + _sag(arc, 512), rel=1e-9)
    assert peak < 16 * 2**20


def test_linking_is_translation_and_swap_invariant():
    a, b = _hopf_cores()
    base = linking_number(a, b)
    shift = np.array([1e4, -1e4, 1e4])
    moved = linking_number(a + shift, b + shift)
    assert moved.link == base.link
    assert abs(moved.raw - base.raw) < 1e-9
    assert abs(linking_number(b, a).raw - base.raw) < 1e-12


def _noisy_pair(seed):
    """The unit Hopf link as 300- and 257-vertex polylines with 1e-3 noise."""
    rng = np.random.default_rng(seed)
    c1, c2 = presets.hopf()
    return tuple(p + rng.normal(0.0, 1e-3, p.shape)
                 for p in (_points(c1, 300), _points(c2, 257)))


def test_linking_is_bitwise_symmetric():
    # rounding in the midpoint sum depends on which polyline is summed along
    # the rows; one canonical order makes lk(a, b) and lk(b, a) the same float
    pairs = [_noisy_pair(seed) for seed in range(20)]
    pairs.append(_hopf_cores())
    for a, b in pairs:
        assert linking_number(a, b) == linking_number(b, a)
