"""Rotation-minimizing frame transport and closed-frame construction."""

import numpy as np
import pytest

from knotflows import presets
from knotflows.curves import resample_arclength
from knotflows.framing import double_reflection_transport, frame_transport


def test_transport_along_straight_line_is_constant():
    z = np.linspace(0.0, 3.0, 40)
    pts = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    tans = np.tile([0.0, 0.0, 1.0], (40, 1))
    r = double_reflection_transport(pts, tans, np.array([1.0, 0.0, 0.0]))
    assert np.max(np.abs(r - np.array([1.0, 0.0, 0.0]))) < 1e-14


def test_unit_circle_frame_is_radial_with_zero_holonomy():
    arc = resample_arclength(presets.circle(1.0)[0], 1024)
    fm = frame_transport(arc)
    # a plane curve cannot twist a rotation-minimizing frame out of its plane
    assert abs(fm.holonomy) < 1e-8
    s = np.linspace(0.0, fm.length, 64, endpoint=False)
    radial = np.column_stack([np.cos(s), np.sin(s), np.zeros_like(s)])
    e1 = fm.jet(s)[1][:, 0]
    # the seed normal is radial, so e1 should stay radial all the way around
    sign = np.sign(np.dot(e1[0], radial[0]))
    assert np.max(np.linalg.norm(e1 - sign * radial, axis=1)) < 1e-6


def test_corrected_frame_closes_around_trefoil():
    arc = resample_arclength(presets.trefoil()[0], 1024)
    fm = frame_transport(arc)
    # undo the construction: raw transport plus the uniform phase must close
    pts = np.vstack([arc.points, arc.points[:1]])
    tans = arc.curve.velocity(arc.t_nodes)
    tans /= np.linalg.norm(tans, axis=1, keepdims=True)
    tans = np.vstack([tans, tans[:1]])
    r = double_reflection_transport(pts, tans, fm.jet(arc.s_nodes[0])[1][0])
    b = np.cross(tans, r)
    phi = -fm.holonomy
    r_end = np.cos(phi) * r[-1] + np.sin(phi) * b[-1]
    assert np.linalg.norm(r_end - r[0]) < 1e-8
    # and the interpolated frame itself is periodic
    assert np.linalg.norm(fm.jet(0.0)[1][0] - fm.jet(fm.length)[1][0]) < 1e-12


def test_frame_orthonormality_property():
    rng = np.random.default_rng(7)
    for curve in (presets.circle(1.0)[0], presets.trefoil()[0],
                  presets.figure_eight()[0]):
        arc = resample_arclength(curve, 1024)
        fm = frame_transport(arc)
        s = rng.uniform(0.0, fm.length, size=200)
        c, e = fm.jet(s)
        t = c[:, 1] / np.linalg.norm(c[:, 1], axis=1, keepdims=True)
        e1 = e[:, 0]
        e2 = np.cross(t, e1)
        assert np.max(np.abs(np.sum(e1 * e1, axis=1) - 1.0)) < 1e-8
        assert np.max(np.abs(np.sum(e1 * t, axis=1))) < 1e-8
        assert np.max(np.abs(np.sum(e2 * e2, axis=1) - 1.0)) < 1e-8
        assert np.max(np.abs(np.sum(e1 * e2, axis=1))) < 1e-10


def test_twist_rate_is_constant_minus_holonomy_over_length():
    arc = resample_arclength(presets.trefoil()[0], 1024)
    fm = frame_transport(arc)
    s = np.linspace(0.0, fm.length, 128, endpoint=False)
    expected = -fm.holonomy / fm.length
    # tangential angular velocity e1' . e2, with e2 = tangent x e1
    c, e = fm.jet(s)
    t = c[:, 1] / np.linalg.norm(c[:, 1], axis=1, keepdims=True)
    twist_rate = np.sum(e[:, 1] * np.cross(t, e[:, 0]), axis=-1)
    assert np.max(np.abs(twist_rate - expected)) < 1e-6


@pytest.mark.parametrize("curve", [presets.borromean(major=8.0)[0], presets.circle(14.0)[0]],
                         ids=["ellipse", "circle14"])
def test_frame_jet_matches_exact_curve_derivatives(curve):
    fm = frame_transport(resample_arclength(curve, 1024))
    s = np.random.default_rng(5).uniform(0.0, fm.length, 2000)
    t = fm.arc.t_at(s)
    v, a = curve.velocity(t), curve.acceleration(t)
    speed = np.linalg.norm(v, axis=1, keepdims=True)
    tangent = v / speed
    # c''(s) = kappa N, the part of c''(t) normal to the tangent over |c'(t)|^2
    kappa_n = (a - np.sum(a * tangent, axis=1, keepdims=True) * tangent) / speed**2
    c, e = fm.jet(s)
    assert np.max(np.linalg.norm(c[:, 1] - tangent, axis=1)) <= 1e-13
    assert np.max(np.linalg.norm(c[:, 2] - kappa_n, axis=1)) <= 2e-12
    assert np.max(np.abs(np.linalg.norm(e[:, 0], axis=1) - 1.0)) <= 1e-14
    assert np.max(np.abs(np.sum(e[:, 0] * c[:, 1], axis=1))) <= 5e-14
