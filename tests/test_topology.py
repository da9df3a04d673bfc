"""Linking numbers, confinement certificates, and Hausdorff distances."""

from functools import lru_cache

import numpy as np
import pytest

from knotflows import presets, topology
from knotflows.charts import TubeChart
from knotflows.curves import resample_arclength
from knotflows.framing import frame_transport
from knotflows.topology import (LinkingError, hausdorff_distance,
                                linking_number, tube_confinement)

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
    """Every point against every segment, in blocks of 64 points, kept as the
    oracle of the pruned distance."""
    a = poly
    b = np.vstack([poly[1:], poly[:1]])
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], 64):
        p = points[lo:lo + 64]
        ap = p[:, None, :] - a[None, :, :]
        tproj = np.clip(np.einsum("pik,ik->pi", ap, ab) / denom, 0.0, 1.0)
        closest = a[None] + tproj[..., None] * ab[None]
        out[lo:lo + 64] = np.min(np.linalg.norm(p[:, None, :] - closest, axis=-1), axis=1)
    return out


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


def test_core_is_confined_with_winding_one():
    chart = _circle_chart()
    cert = tube_confinement(chart.frame.arc.points, chart)
    assert cert.confined
    assert cert.winding == 1
    assert abs(cert.margin_rho - chart.radius) < 1e-9
    assert abs(cert.margin_z - chart.w_half) < 1e-9
    assert cert.witness is None


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


def test_confinement_is_monotone_in_the_declared_tube():
    chart = _circle_chart()
    s = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    # constant normal offset rho = 0.05
    pts = np.column_stack([np.cos(s), np.sin(s), -0.05 * np.ones_like(s)])
    assert tube_confinement(pts, chart).confined
    shrunk = tube_confinement(pts, chart, r_max=0.03)
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


def test_hausdorff_identical_and_concentric():
    a = _points(presets.circle(1.0)[0], 512)
    assert hausdorff_distance(a, a) == 0.0
    b = 1.1 * a
    assert abs(hausdorff_distance(a, b) - 0.1) < 1e-4
    # asymmetric construction still reports the symmetric maximum
    assert abs(hausdorff_distance(b, a) - 0.1) < 1e-4
    # more points than one block of the distance computation
    rng = np.random.default_rng(3)
    c = _points(presets.circle(1.0)[0], 150) + rng.normal(0.0, 0.05, (150, 3))
    d = _points(presets.circle(1.2)[0], 97)
    assert hausdorff_distance(c, d) == pytest.approx(_brute_hausdorff(c, d), rel=1e-12)


def test_hausdorff_detects_local_bump():
    a = _points(presets.circle(1.0)[0], 512)
    b = a.copy()
    b[17] = b[17] * 1.05
    assert abs(hausdorff_distance(a, b) - 0.05) < 1e-3


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


def _assert_distances_match(points, poly):
    got = topology._point_segment_distances(points, poly)
    ref = _reference_point_segment_distances(points, poly)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n_points", [257, 513])
def test_pruned_distances_match_reference(n_points):
    rng = np.random.default_rng(11)
    poly = _points(presets.trefoil()[0], 300)
    ab = np.roll(poly, -1, axis=0) - poly
    seg = rng.integers(0, len(poly), n_points)
    on_vertices = poly[rng.integers(0, len(poly), n_points)]
    on_segments = poly[seg] + rng.random((n_points, 1)) * ab[seg]
    near = on_segments + rng.normal(0.0, 0.05, (n_points, 3))
    far = rng.normal(0.0, 1.0, (n_points, 3)) * 1e3
    for points in (on_vertices, on_segments, near, far):
        _assert_distances_match(points, poly)
    assert np.all(topology._point_segment_distances(on_vertices, poly) == 0.0)


def test_pruned_distances_with_one_long_segment():
    # one segment 100 times the others stresses the half-length lower bound:
    # points near its middle are far from every vertex
    short = np.column_stack([np.linspace(0.0, 1.0, 101), np.zeros(101), np.zeros(101)])
    poly = np.vstack([short, [[0.5, 100.0, 0.0]]])
    rng = np.random.default_rng(12)
    points = np.vstack([
        rng.uniform([-5.0, -5.0, -5.0], [5.0, 105.0, 5.0], (257, 3)),
        poly[100] + rng.random((64, 1)) * (poly[101] - poly[100]),
        poly[101] + rng.normal(0.0, 0.5, (64, 3))])
    _assert_distances_match(points, poly)


def test_pruned_distances_on_a_triangle():
    poly = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 1.0]])
    rng = np.random.default_rng(13)
    _assert_distances_match(rng.normal(0.0, 3.0, (513, 3)), poly)


def test_linking_memory_is_bounded_by_its_block():
    # the whole-table broadcast built (1024, 1024, 3) temporaries: 88 MiB
    a, b = _hopf_cores()
    got, peak = traced_peak(linking_number, a, b)
    assert abs(got.link) == 1
    assert peak < 16 * 2**20


def test_hausdorff_memory_is_bounded_by_its_block():
    a, _ = _hopf_cores()
    orbit = _points(presets.hopf(radius=14.0)[0], 512) + np.array([0.0, 0.0, 1e-3])
    got, peak = traced_peak(hausdorff_distance, orbit, a)
    expect = max(_reference_point_segment_distances(orbit, a).max(),
                 _reference_point_segment_distances(a, orbit).max())
    assert abs(got - expect) <= 1e-13 * expect
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
