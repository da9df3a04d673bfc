"""Pipeline orchestration: spot checks, gates, and the report schema."""

import numpy as np
import pytest

from knotflows import pipeline
from knotflows.config import RunConfig
from knotflows.curves import LinkSpec
from knotflows.field import BeltramiExpansion
from knotflows.pipeline import (PipelineError, check_points, fd_curl_divergence,
                                fit_report_dict, synthesize, verify)
from knotflows.presets import circle

CRITERIA = ["cauchy_closedness", "strip_residual_budget", "eigen_relation",
            "orbits_converged", "orbits_hyperbolic", "unit_determinant",
            "orbits_confined", "hausdorff_distance", "linking_matrix"]


def _axis_wave(lam=1.0):
    return BeltramiExpansion(lam, np.array([[0.0, 0.0, 1.0]]),
                             np.array([[1.0, 0.0, 0.0]]),
                             np.array([1.0]), np.array([0.0]))


def test_check_points_deterministic_and_in_box():
    link = LinkSpec(1.0, tuple(circle()))
    a = check_points(link, 100, seed=0)
    b = check_points(link, 100, seed=0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, check_points(link, 100, seed=1))
    # the box inflates the link's sample cloud by 0.5 on each side
    assert a.shape == (100, 3)
    assert np.all(a >= [-1.5, -1.5, -0.5]) and np.all(a <= [1.5, 1.5, 0.5])


def test_fd_curl_divergence_on_exact_beltrami():
    u = _axis_wave(lam=1.5)
    pts = np.random.default_rng(2).uniform(-1, 1, (50, 3))
    curl_rel, div_max = fd_curl_divergence(u, pts)
    assert curl_rel < 1e-9
    assert div_max < 1e-11


def test_fd_curl_divergence_flags_non_beltrami():
    class Shear:
        lam = 1.0

        def __call__(self, pts):
            pts = np.atleast_2d(pts)
            out = np.zeros_like(pts)
            out[:, 0] = pts[:, 1]      # u = (y, 0, 0): curl = -z_hat != u
            return out

    curl_rel, div_max = fd_curl_divergence(Shear(), np.array([[0.3, 0.7, -0.2]]))
    assert curl_rel > 0.5
    assert div_max < 1e-10


def test_synthesize_closedness_gate(monkeypatch):
    link = LinkSpec(1.0, tuple(circle()))
    monkeypatch.setattr(pipeline, "CLOSEDNESS_TOL", 1e-18)
    with pytest.raises(PipelineError, match="closedness"):
        synthesize(link, RunConfig(lam=1.0))


@pytest.mark.parametrize("bad", [
    {"rtol": float("nan")}, {"atol": 0.0}, {"rtol": -1.0}, {"ridge": -1.0},
    {"lam": float("inf")}, {"directions": 0}, {"orbit_samples": -4},
    {"hausdorff_tol": 0.0},
])
def test_run_config_rejects_bad_values(bad):
    name = next(iter(bad))
    with pytest.raises(ValueError, match=name):
        RunConfig(**bad)
    with pytest.raises(ValueError, match=name):
        RunConfig().replace(**bad)


def test_run_config_accepts_zero_ridge_order_and_seed():
    assert RunConfig(ridge=0.0, seed=0).ridge == 0.0


def test_verify_rejects_lambda_mismatch():
    link = LinkSpec(1.0, tuple(circle()))
    with pytest.raises(ValueError, match="lambda mismatch"):
        verify(link, _axis_wave(lam=2.0))


def test_config_reconciled_to_link_lambda(unknot_run):
    # fixtures hand synthesize a config whose lam already matches, but a
    # mismatched one must be replaced, not trusted
    link = unknot_run["link"]
    result = unknot_run["synthesis"]
    assert result.config.lam == link.lam


def test_fit_report_dict_round_trip(unknot_run):
    fit = unknot_run["synthesis"].fit
    doc = fit_report_dict(fit)
    assert doc["success"] is True
    assert doc["basis_members"] == fit.basis_members
    assert doc["tube_residuals"] == fit.tube_residuals
    assert doc["rank"] == fit.rank
    assert set(doc) == {"basis_members", "n_points", "tube_residuals",
                        "tube_budgets", "success", "condition", "rank",
                        "weighted_objective", "ridge", "advice"}


def test_report_schema(unknot_run):
    report = unknot_run["report"]
    assert report["schema"] == "knotflows.report/1"
    assert [c["name"] for c in report["criteria"]] == CRITERIA
    assert all(isinstance(c["passed"], bool) and c["detail"] for c in report["criteria"])
    assert report["passed"] is True
    comp = report["components"][0]
    # exactly these keys: every certificate is read off the fitted field
    assert set(comp) == {
        "index", "strip_residual", "strip_budget", "closedness", "tube_radius",
        "strip_half_width", "core_length", "status", "period",
        "closure_residual", "newton_iterations", "multipliers", "det_monodromy",
        "classification", "margin", "flow_eigen_residual", "confined",
        "winding", "margin_rho", "margin_z", "hausdorff", "hausdorff_tol"}
    assert comp["status"] == "ok"
    assert report["pairs"] == []  # a single component has no pairs
    assert set(report["config"]) == {
        "lam", "w_half_factor", "frame_samples", "strip_s_per_2pi", "strip_t_nodes",
        "directions", "ridge", "eps_tilde", "rtol", "atol", "orbit_samples",
        "hausdorff_tol", "seed"}
    for key in ("geometry_s", "eigen_check_s", "dynamics_s", "topology_s"):
        assert report["timings"][key] >= 0.0


def test_flow_eigen_residual_per_segment(hopf_run):
    # at T = 88 the assembled monodromy amplifies rounding by e^88; each
    # segment factor must still carry the flow direction along the orbit
    for comp in hopf_run["report"]["components"]:
        assert comp["flow_eigen_residual"] < 1e-6


def test_pairs_schema(hopf_run):
    pairs = hopf_run["report"]["pairs"]
    assert len(pairs) == 1
    pair = pairs[0]
    assert {"a", "b", "target", "linking", "defect", "match"} <= set(pair)
    assert pair["match"] is True
    assert abs(pair["linking"]) == 1


def test_verify_is_exact_under_relabeling(hopf_run):
    # listing the components in the other order permutes every per-component
    # number and leaves the link-level ones unchanged, bit for bit
    link = hopf_run["link"]
    swapped = LinkSpec(link.lam, link.components[::-1])
    report = hopf_run["report"]
    assert report["strip_residuals"][0] != report["strip_residuals"][1]
    other = verify(swapped, hopf_run["synthesis"].expansion, hopf_run["config"]).report
    for comp, partner in zip(report["components"], other["components"][::-1]):
        assert comp.keys() == partner.keys()
        for key in comp.keys() - {"index"}:
            assert comp[key] == partner[key], key
    assert other["strip_residuals"] == report["strip_residuals"][::-1]
    assert other["closedness"] == report["closedness"][::-1]
    assert other["eigen_relation"] == report["eigen_relation"]
    (pair,), (pair_other,) = report["pairs"], other["pairs"]
    for key in ("target", "linking", "defect", "target_defect"):
        assert pair_other[key] == pair[key], key
    assert other["passed"] == report["passed"]


def test_verification_outcome_flags(unknot_run):
    outcome = unknot_run["outcome"]
    assert outcome.passed and outcome.budget_ok
    assert outcome.dynamics_ok and outcome.topology_ok


def test_outcome_returns_the_refined_orbits(hopf_run):
    outcome = hopf_run["outcome"]
    comps = hopf_run["report"]["components"]
    assert len(outcome.orbits) == len(comps)
    for orbit, comp in zip(outcome.orbits, comps):
        assert orbit.period == comp["period"]
        # exactly the samples asked for, though 1024 is no multiple of the
        # 44 shooting segments at T = 88
        assert orbit.points.shape == (hopf_run["config"].orbit_samples, 3)
        assert len(orbit.nodes) == 44


def test_over_budget_component_skips_orbit_refinement(unknot_run, monkeypatch):
    u = unknot_run["synthesis"].expansion
    doubled = BeltramiExpansion(u.lam, u.k, u.e, 2.0 * u.alpha, 2.0 * u.beta)

    def refine_orbit(*args, **kwargs):
        raise AssertionError("refine_orbit called on an over-budget fit")

    monkeypatch.setattr(pipeline, "refine_orbit", refine_orbit)
    outcome = verify(unknot_run["link"], doubled, unknot_run["config"])
    assert not outcome.passed and not outcome.budget_ok
    assert outcome.report["components"][0]["status"] == "over_budget"
    assert outcome.orbits == [None]
    failed = {c["name"] for c in outcome.report["criteria"] if not c["passed"]}
    assert {"strip_residual_budget", "orbits_converged"} <= failed
