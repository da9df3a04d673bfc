"""Closed-curve models: Fourier evaluation, arc length, embedding checks."""

import itertools

import numpy as np
import pytest

from knotflows import presets
from knotflows.curves import (SERIES_TAIL, ArcLengthCurve, EmbeddingError, FourierCurve,
                              LinkSpec, SpectralSeries, resample_arclength)
from knotflows.framing import frame_transport

from conftest import quadrature_length, traced_peak


def test_circle_length_is_2pi():
    arc = resample_arclength(presets.circle(1.0)[0], 256)
    assert abs(arc.length - 2.0 * np.pi) < 1e-12


def test_unit_speed_after_reparametrization():
    # |dc/ds| = 1 at the samples, via the frame's spectral position model
    for curve in (presets.circle(1.0)[0], presets.trefoil()[0],
                  presets.figure_eight()[0]):
        arc = resample_arclength(curve, 512)
        vel = frame_transport(arc).position(arc.s_nodes, 1)
        speeds = np.linalg.norm(vel, axis=1)
        assert np.max(np.abs(speeds - 1.0)) < 1e-8


def test_arclength_curve_identity_on_unit_circle():
    # the unit circle is already arc-length parametrized: t(s) = s
    arc = resample_arclength(presets.circle(1.0)[0], 128)
    assert np.max(np.abs(arc.t_nodes - arc.s_nodes)) < 1e-12
    assert np.max(np.abs(arc.points - presets.circle(1.0)[0].point(arc.s_nodes))) < 1e-12


def test_trefoil_length_matches_quadrature_oracle():
    curve = presets.trefoil()[0]
    arc = resample_arclength(curve, 1024)
    assert abs(arc.length - quadrature_length(curve)) < 1e-6


def test_torus_knot_expansion_matches_product_form():
    p, q, major, minor = 2, 3, 0.5, 0.25
    curve = presets.torus_knot(p, q, major, minor)[0]
    t = np.linspace(0.0, 2.0 * np.pi, 257)
    expect = np.column_stack([
        (major + minor * np.cos(q * t)) * np.cos(p * t),
        (major + minor * np.cos(q * t)) * np.sin(p * t),
        minor * np.sin(q * t)])
    assert np.max(np.abs(curve.point(t) - expect)) < 1e-14


def test_velocity_acceleration_match_finite_differences():
    curve = presets.figure_eight()[0]
    t = np.linspace(0.1, 6.0, 7)
    h = 1e-4
    v_fd = (curve.point(t + h) - curve.point(t - h)) / (2.0 * h)
    a_fd = (curve.point(t + h) - 2.0 * curve.point(t) + curve.point(t - h)) / h**2
    assert np.max(np.abs(curve.velocity(t) - v_fd)) < 1e-7
    assert np.max(np.abs(curve.acceleration(t) - a_fd)) < 1e-5


def test_nonembedded_curve_rejected_with_parameters():
    # figure-eight-shaped plane curve passes through the origin twice
    eight = FourierCurve(np.array([[0, 0, 0], [1, 0, 0]], dtype=float),
                         np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=float))
    with pytest.raises(EmbeddingError, match="self-intersects"):
        resample_arclength(eight, 512)


def test_degenerate_speed_rejected():
    # c(t) = (cos 2t, sin... ) scaled to pinch: a curve with a cusp has |c'| = 0
    cusp = FourierCurve(np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=float),
                        np.array([[0, 0, 0], [0, 1, 0], [0, 0.5, 0]], dtype=float))
    with pytest.raises(EmbeddingError):
        resample_arclength(cusp, 256)


def test_sin_constant_row_must_vanish():
    with pytest.raises(ValueError, match="sin"):
        FourierCurve(np.zeros((2, 3)), np.array([[0.0, 1.0, 0.0], [1.0, 0, 0]]))


def test_spectral_series_reproduces_samples_and_derivative():
    n = 64
    s = 2.0 * np.pi * np.arange(n) / n
    f = np.column_stack([np.cos(3 * s), np.sin(2 * s)])
    series = SpectralSeries(f, 2.0 * np.pi)
    sq = np.linspace(0.0, 2.0 * np.pi, 17)
    expect = np.column_stack([np.cos(3 * sq), np.sin(2 * sq)])
    d_expect = np.column_stack([-3 * np.sin(3 * sq), 2 * np.cos(2 * sq)])
    dd_expect = np.column_stack([-9 * np.cos(3 * sq), -4 * np.sin(2 * sq)])
    jet = series(sq)
    assert jet.shape == (17, 3, 2)
    assert np.max(np.abs(jet[:, 0] - expect)) < 1e-12
    assert np.max(np.abs(jet[:, 1] - d_expect)) < 1e-11
    assert np.max(np.abs(jet[:, 2] - dd_expect)) < 1e-10


@pytest.mark.parametrize("n", [1024, 4096])
def test_frame_series_of_circles_keeps_two_modes(n):
    for curve in presets.circle(1.0) + presets.hopf(14.0):
        assert frame_transport(resample_arclength(curve, n)).series.table.shape[0] == 2


def test_truncated_series_reproduces_samples_within_tail_bound():
    ring = resample_arclength(presets.borromean(major=8.0)[0], 1024)
    assert frame_transport(ring).series.table.shape[0] - 1 <= 128
    # columns of different spectra: the ring's, and the wider trefoil x32's
    samples = np.hstack([ring.points, resample_arclength(presets.trefoil(32.0)[0], 1024).points])
    series = SpectralSeries(samples, ring.length)
    keep = series.table.shape[0]
    bound = SERIES_TAIL * np.maximum(1.0, np.max(np.abs(samples), axis=0))
    assert np.all(np.max(np.abs(series(ring.s_nodes)[:, 0] - samples), axis=0) <= bound)
    # and K is the least such index: one mode fewer leaves some column's tail above it
    coeffs = np.abs(np.fft.rfft(samples, axis=0))
    w = np.full(coeffs.shape[0], 2.0 / 1024)
    w[0] = w[-1] = 1.0 / 1024
    assert np.any(np.sum(w[keep - 1:, None] * coeffs[keep - 1:], axis=0) > bound)


def test_reach_of_unit_circle_is_one():
    arc = resample_arclength(presets.circle(1.0)[0], 512)
    assert abs(arc.reach() - 1.0) < 1e-6


def test_self_distance_brute_force_oracle():
    curve = presets.trefoil()[0]
    arc = resample_arclength(curve, 512)
    dist, si, sj = arc.self_distance()
    # brute force over dense parameter pairs, excluding the local window
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    pts = curve.point(t)
    d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=-1)
    idx = np.arange(2048)
    sep = np.abs(idx[:, None] - idx[None, :])
    sep = np.minimum(sep, 2048 - sep)
    window = int(2048 * (np.pi / curve.max_curvature()) / arc.length)
    d2 = np.where(sep >= window, d2, np.inf)
    assert abs(dist - np.sqrt(d2.min())) < 1e-3


def _broad_spectrum_curve():
    """A random degree-12 curve whose speed spectrum decays slowly."""
    rng = np.random.default_rng(0)
    k = np.maximum(np.arange(13), 1)[:, None]
    a, b = rng.normal(size=(13, 3)) / k, rng.normal(size=(13, 3)) / k
    b[0] = 0.0
    return FourierCurve(a, b)


def _full_spectrum_arclen(curve, t):
    """Arc length from every mode of the speed's FFT, as before truncation."""
    m = max(4096, 8 * (curve.degree + 1))
    coeffs = np.fft.rfft(curve.speed(np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)))
    modes = np.arange(1, coeffs.shape[0])
    anti = coeffs[1:] / (1j * modes)
    periodic = np.concatenate([np.real(np.exp(1j * np.multiply.outer(tb, modes)) @ anti)
                               for tb in np.array_split(t, 8)])
    return coeffs[0].real / m * t + 2.0 * (periodic - np.real(np.sum(anti))) / m


def test_truncated_arclength_matches_full_spectrum():
    t = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 4096)
    # (curve, bounds on the kept mode count); the broad spectrum guards
    # against over-truncation
    for curve, fewest, most in ((presets.borromean(major=8.0)[0], 1, 128),
                                (presets.trefoil()[0], 1, 128),
                                (presets.figure_eight()[0], 1, 128),
                                (_broad_spectrum_curve(), 1000, 2048)):
        arc = ArcLengthCurve(curve, 256)
        err = np.max(np.abs(arc.arclen(t) - _full_spectrum_arclen(curve, t)))
        assert err <= 1e-15 * arc.length
        assert fewest <= arc._anti.size <= most
    assert ArcLengthCurve(presets.circle(1.0)[0], 256)._anti.size == 0


def _broadcast_chord_scan(arc):
    """The chord scan of ArcLengthCurve with the chord matrix as a broadcast sum."""
    kappa = arc.curve.max_curvature()
    k_win = int(np.ceil(min(np.pi / kappa, arc.length / 4.0) / (arc.length / arc.n)))
    p = arc.points
    d2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
    idx = np.arange(arc.n)
    sep = np.abs(idx[:, None] - idx[None, :])
    sep = np.minimum(sep, arc.n - sep)
    i, j = np.unravel_index(np.argmin(np.where(sep >= max(1, k_win), d2, np.inf)),
                            d2.shape)
    closest = (float(np.sqrt(d2[i, j])), float(arc.s_nodes[i]), float(arc.s_nodes[j]))
    local = sep >= max(2, k_win)
    for ax in (0, 1):
        for shift in (1, -1):
            local &= d2 <= np.roll(d2, shift, axis=ax)
    return closest, min(1.0 / kappa, 0.5 * np.sqrt(np.min(d2[local], initial=np.inf)))


def test_chord_scan_matches_broadcast_sum_bitwise():
    curves = (presets.trefoil()[0], presets.borromean()[1], presets.borromean(8.0)[0],
              presets.hopf(14.0)[1], presets.figure_eight()[0],
              presets.torus_knot(2, 5, 1.0, 0.3)[0], presets.circle()[0])
    for curve, n in itertools.product(curves, (1024, 2048)):
        arc = ArcLengthCurve(curve, n)
        closest, reach = _broadcast_chord_scan(arc)
        assert arc.self_distance() == closest
        assert arc.reach() == reach


def test_chord_scan_holds_one_chord_table():
    arc = ArcLengthCurve(presets.borromean(8.0)[0], 1024)
    _, peak = traced_peak(arc._scan_chords)
    # the (n, n) float64 chord table is 8 MiB; the scan holds one more (its
    # wrapped copy) and boolean masks, not an int64 separation table or rolled copies
    assert peak < 24 * 2**20


def test_linkspec_validation():
    circle = presets.circle(1.0)[0]
    with pytest.raises(ValueError, match="nonzero"):
        LinkSpec(0.0, (circle,))
    with pytest.raises(ValueError, match="positive"):
        LinkSpec(-1.0, (circle,))
    with pytest.raises(ValueError, match="at least one"):
        LinkSpec(1.0, ())
    with pytest.raises(TypeError):
        LinkSpec(1.0, (np.zeros(3),))
    link = LinkSpec(2.0, tuple(presets.hopf()))
    assert len(link) == 2
