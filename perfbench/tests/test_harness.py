"""Tests of the benchmark harness itself.

Each independent check must accept a known-good input and reject a known-bad
one; the tracer must see nested calls and put back everything it wraps; the
metric names the benchmark prints must be those of BENCHMARK.json. Run from
the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from knotflows import pipeline, presets  # noqa: E402
from knotflows.config import RunConfig  # noqa: E402
from knotflows.curves import LinkSpec  # noqa: E402
from knotflows.field import BeltramiExpansion, make_basis  # noqa: E402
from knotflows.fileio import load_field, save_field  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def waves():
    rng = np.random.default_rng(3)
    k, e = make_basis(20, rng)
    return k, e, rng.standard_normal(len(k)), rng.standard_normal(len(k))


def rotation(x):
    """Rigid rotation about the z-axis: the unit tangent on the unit circle."""
    x = np.atleast_2d(x)
    u = np.column_stack([-x[:, 1], x[:, 0], np.zeros(len(x))])
    return u if x.shape[0] > 1 else u[0]


def circle_samples(n, radius=1.0, z=0.0):
    t = 2 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(t), radius * np.sin(t), np.full(n, z)])


BOX = np.random.default_rng(5).uniform(-3, 3, (32, 3))


def test_eigen_relation_accepts_plane_waves(waves):
    assert checks.eigen_relation(checks.PlaneWaveField(1.0, *waves), BOX).ok


def test_eigen_relation_rejects_anti_beltrami_field(waves):
    u = checks.PlaneWaveField(1.0, *waves)
    u.f = -u.f  # curl u = -lam u, still divergence-free
    check = checks.eigen_relation(u, BOX)
    assert not check.ok and "curl" in check.detail


def test_eigen_relation_rejects_compressible_field(waves):
    k, _, alpha, beta = waves
    u = checks.PlaneWaveField(1.0, k, k, alpha, beta)  # longitudinal waves
    assert not checks.eigen_relation(u, BOX).ok


def test_plane_wave_field_matches_program_expansion(waves):
    exp = BeltramiExpansion(1.0, *waves)
    assert np.allclose(checks.PlaneWaveField.of(exp)(BOX), exp(BOX), atol=1e-13)


def test_core_tangent():
    curve = presets.circle(1.0)[0]
    t = np.linspace(0, 2 * np.pi, 50)
    assert checks.core_tangent(rotation, curve, t, 1e-3, 0).ok
    assert not checks.core_tangent(lambda x: 1.01 * rotation(x), curve, t, 1e-3, 0).ok


def test_curve_length_and_period():
    length = checks.curve_length(presets.circle(3.0)[0])
    assert abs(length - 6 * np.pi) < 1e-12
    assert checks.period(length * (1 + 5e-4), length, 0).ok
    assert not checks.period(length * (1 + 2e-3), length, 0).ok


@pytest.mark.parametrize("mus, ok", [
    ((np.exp(6.0), np.exp(-6.0)), True),
    ((1.0 + 0j, 1.0 - 0j), False),                      # elliptic
    ((np.exp(6.0), 1.01 * np.exp(-6.0)), False),        # breaks Liouville
    ((np.exp(3.0), np.exp(-3.0)), False),               # rate far from e^(-T)
])
def test_floquet(mus, ok):
    assert checks.floquet(*mus, 6.0, 0).ok is ok


def test_orbit_near_core_rejects_shifted_orbit():
    core = checks.dense_core(presets.circle(1.0)[0])
    assert checks.orbit_near_core(circle_samples(256), core, 1e-2, 0).ok
    shifted = circle_samples(256, z=0.05)
    assert not checks.orbit_near_core(shifted, core, 1e-2, 0).ok


def test_orbit_flow():
    pts = circle_samples(64)
    idx = np.array([0, 17, 63])
    assert checks.orbit_flow(rotation, pts, 2 * np.pi, idx, 0).ok
    assert not checks.orbit_flow(rotation, pts, 2.02 * np.pi, idx, 0).ok


def test_crossing_linking_of_hopf_and_borromean():
    ring = 2 * np.pi * np.arange(400) / 400
    rng = np.random.default_rng(0)
    a, b = (checks.curve_eval(c, ring) for c in presets.hopf(1.0))
    assert abs(checks.crossing_linking(a, b, rng)) == 1
    rings = [checks.curve_eval(c, ring) for c in presets.borromean(1.0)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert checks.crossing_linking(rings[i], rings[j], rng) == 0


def test_linking_rejects_far_translated_orbit():
    ring = 2 * np.pi * np.arange(400) / 400
    a, b = (checks.curve_eval(c, ring) for c in presets.hopf(1.0))
    rng = np.random.default_rng(1)
    assert checks.linking(a, b, a, b, 1, (0, 1), rng).ok
    far = b + np.array([100.0, 0.0, 0.0])
    check = checks.linking(a, far, a, b, 1, (0, 1), rng)
    assert not check.ok and "orbits 0" in check.detail


def test_file_roundtrip(tmp_path, waves):
    exp = BeltramiExpansion(1.0, *waves)
    save_field(exp, tmp_path / "f.json")
    assert checks.file_roundtrip(exp, load_field(tmp_path / "f.json")).ok
    alpha = exp.alpha.copy()
    alpha[3] = np.nextafter(alpha[3], np.inf)
    other = BeltramiExpansion(1.0, exp.k, exp.e, alpha, exp.beta)
    assert not checks.file_roundtrip(other, exp).ok


def test_tracer_nests_spans_and_restores_originals():
    original = pipeline.build_charts
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.build_charts is not original
        link = LinkSpec(1.0, tuple(presets.circle(1.0)))
        pipeline.build_geometry(link, RunConfig(frame_samples=256, strip_s_per_2pi=64))
    finally:
        tracer.uninstall()
    assert pipeline.build_charts is original
    names = [tracer.names[i] for i in tracer.span_name]
    parent = names.index("pipeline.build_geometry")
    child = names.index("charts.build_charts")
    assert tracer.span_parent[child] == parent
    assert tracer.span_start[parent] <= tracer.span_start[child]
    assert tracer.span_end[child] <= tracer.span_end[parent]
    layers = tracer.layer_metrics()
    assert 0 < layers["strip.cauchy_s"] <= layers["pipeline.geometry_s"]
    assert layers["charts.strip_jet_calls"] > 0 and layers["strip.series_points"] > 0


def test_metric_names_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert end_to_end == {**worker.END_TO_END_UNITS, "setup_s": "s"}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == tracing.PER_LAYER_UNITS
    emitted = set(tracing.Tracer().layer_metrics()) | {
        "trace.synthesize_s", "trace.verify_s", "code.src_lines"}
    assert emitted == set(per_layer)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
