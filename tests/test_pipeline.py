"""Pipeline orchestration: gates, criteria and the report schema."""

import dataclasses
import json
from dataclasses import asdict

import numpy as np
import pytest

from knotflows import cli, pipeline, presets
from knotflows.config import RunConfig
from knotflows.curves import FourierCurve, LinkSpec, resample_arclength
from knotflows.dynamics import NewtonFailure
from knotflows.field import BeltramiExpansion, eigen_bounds, make_basis
from knotflows.fitting import fit_global
from knotflows.pipeline import PipelineError, synthesize, verify
from knotflows.topology import LinkingError
from knotflows.presets import circle

from conftest import CRITERIA, overflowing_orbit


def _axis_wave(lam=1.0):
    return BeltramiExpansion(lam, np.array([[0.0, 0.0, 1.0]]),
                             np.array([[1.0, 0.0, 0.0]]),
                             np.array([1.0]), np.array([0.0]))


def test_synthesize_closedness_gate(monkeypatch):
    link = LinkSpec(1.0, tuple(circle()))
    monkeypatch.setattr(pipeline, "CLOSEDNESS_TOL", 1e-18)
    with pytest.raises(PipelineError, match="closedness"):
        synthesize(link, RunConfig(lam=1.0))


def test_nan_closedness_in_the_second_tube_fails_both_gates(monkeypatch):
    # a nan that is not the first tube's must not slip past max() and a > test
    link = LinkSpec(1.0, tuple(presets.hopf(radius=14.0)))
    cfg = RunConfig(lam=1.0, w_half_factor=0.01, strip_s_per_2pi=18, strip_t_nodes=9)
    built = []
    build_cauchy_data = pipeline.build_cauchy_data

    def second_tube_nan(chart, config):
        built.append(build_cauchy_data(chart, config))
        if len(built) % 2:
            return built[-1]
        return dataclasses.replace(built[-1], closedness=float("nan"))

    monkeypatch.setattr(pipeline, "build_cauchy_data", second_tube_nan)
    with pytest.raises(PipelineError, match="closedness"):
        synthesize(link, cfg)
    report = verify(link, _axis_wave(), cfg).report
    assert np.isnan(report["closedness"][1]) and np.isfinite(report["closedness"][0])
    passed = {c["name"]: c["passed"] for c in report["criteria"]}
    assert passed["cauchy_closedness"] is False


@pytest.mark.parametrize("bad", [
    {"rtol": float("nan")}, {"atol": 0.0}, {"rtol": -1.0}, {"ridge": -1.0},
    {"lam": float("inf")}, {"directions": 0}, {"orbit_samples": -4},
    {"hausdorff_tol": 0.0}, {"directions": 60.5}, {"frame_samples": 256.5},
    {"strip_t_nodes": 2}, {"orbit_samples": 2}, {"directions": True}, {"rtol": True},
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
    with pytest.raises(ValueError, match="lambda mismatch: field has 2.0, link has 1.0"):
        verify(link, _axis_wave(lam=2.0), RunConfig(lam=1.0))


def test_config_of_another_lambda_is_refused():
    # a config's lam is never rewritten to the link's: both commands refuse it
    # before any geometry is built
    link = LinkSpec(1.0, tuple(circle()))
    with pytest.raises(ValueError, match="lambda mismatch: config has 2.0, link has 1.0"):
        synthesize(link, RunConfig(lam=2.0))
    with pytest.raises(ValueError, match="lambda mismatch: config has 2.0, link has 1.0"):
        verify(link, _axis_wave(), RunConfig(lam=2.0))


def test_config_reconciled_to_link_lambda(unknot_run):
    # the fixtures hand synthesize a config whose lam matches the link's,
    # and the result carries that config
    link = unknot_run["link"]
    result = unknot_run["synthesis"]
    assert result.config.lam == link.lam


def test_fit_report_dict_round_trip(unknot_run):
    fit = unknot_run["synthesis"].fit
    doc = asdict(fit)
    assert doc["success"] is True
    assert doc["basis_members"] == fit.basis_members
    assert doc["tube_residuals"] == fit.tube_residuals
    assert doc["rank"] == fit.rank
    assert set(doc) == {"basis_members", "n_points", "tube_residuals",
                        "tube_budgets", "success", "condition", "rank",
                        "weighted_objective", "ridge", "advice"}


def test_report_schema(unknot_run):
    report = unknot_run["report"]
    assert report["schema"] == "knotflows.report/2"
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
    assert set(report["eigen_relation"]) == {"curl_bound", "div_bound"}
    assert set(report["timings"]) == {"geometry_s", "dynamics_s", "topology_s"}
    assert all(v >= 0.0 for v in report["timings"].values())


@pytest.mark.parametrize("run", ["unknot_run", "hopf_run", "trefoil_run", "borromean_run"])
def test_eigen_relation_reports_the_member_bounds(run, request):
    # coefficient totals of 8.6e3-2.4e4 times member defects of a few ulp: the
    # bounds hold on all of R^3 and sit three decades under the 1e-8 gate
    fixture = request.getfixturevalue(run)
    bounds = fixture["report"]["eigen_relation"]
    assert (bounds["curl_bound"], bounds["div_bound"]) == \
        eigen_bounds(fixture["synthesis"].expansion)
    assert max(bounds.values()) < 1e-11


def test_verify_report_does_not_read_the_seed(unknot_run):
    # verify samples no points, so another config.seed leaves every number
    # of its report the same, bit for bit
    config = unknot_run["config"]
    other = verify(unknot_run["link"], unknot_run["synthesis"].expansion,
                   config.replace(seed=config.seed + 1)).report

    def numbers(report):
        return json.dumps({k: v for k, v in report.items() if k not in ("config", "timings")})

    assert numbers(other) == numbers(unknot_run["report"])
    assert other["config"] == {**unknot_run["report"]["config"], "seed": config.seed + 1}


def test_eigen_relation_fails_alone_on_stretched_wave_vectors(unknot_run):
    # |k| = 1 + 9e-13 passes _check_members, but times the fit's coefficient
    # total it breaks the 1e-8 gate; the field moves by ~1e-8 and every other
    # criterion still passes
    u = unknot_run["synthesis"].expansion
    stretched = BeltramiExpansion(u.lam, u.k * (1.0 + 9e-13), u.e, u.alpha, u.beta)
    assert eigen_bounds(stretched)[0] > pipeline.EIGEN_TOL
    outcome = verify(unknot_run["link"], stretched, unknot_run["config"])
    assert [c["name"] for c in outcome.report["criteria"] if not c["passed"]] == \
        ["eigen_relation"]


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


def test_missing_orbit_leaves_the_pair_uncomputed(hopf_run, monkeypatch):
    # component 0 gets the fixture's orbit back, component 1 a Newton failure
    orbits = iter([hopf_run["outcome"].orbits[0]])

    def refine_orbit(*args, **kwargs):
        orbit = next(orbits, None)
        if orbit is None:
            raise NewtonFailure("shooting Newton stalled at iteration 0")
        return orbit

    monkeypatch.setattr(pipeline, "refine_orbit", refine_orbit)
    outcome = verify(hopf_run["link"], hopf_run["synthesis"].expansion, hopf_run["config"])
    report = outcome.report
    assert [c["status"] for c in report["components"]] == ["ok", "dynamics_error"]
    (pair,) = report["pairs"]
    assert pair["error"] == "orbit missing; linking not computed"
    assert pair["target"] == hopf_run["report"]["pairs"][0]["target"]
    assert "linking" not in pair
    failed = {c["name"] for c in report["criteria"] if not c["passed"]}
    assert {"orbits_converged", "linking_matrix"} <= failed


def test_nan_strip_residual_is_over_budget(hopf_run, monkeypatch):
    # a nan residual is not below eps~: its tube gets no orbit refinement
    residuals = []
    strip_residual = pipeline.strip_residual

    def second_tube_nan(field, data):
        residuals.append(strip_residual(field, data))
        return residuals[-1] if len(residuals) == 1 else float("nan")

    refined = []
    refine_orbit = pipeline.refine_orbit

    def recorded(field, chart, **kwargs):
        refined.append(chart.component_id)
        return refine_orbit(field, chart, **kwargs)

    monkeypatch.setattr(pipeline, "strip_residual", second_tube_nan)
    monkeypatch.setattr(pipeline, "refine_orbit", recorded)
    outcome = verify(hopf_run["link"], hopf_run["synthesis"].expansion, hopf_run["config"])
    report = outcome.report
    assert np.isnan(report["strip_residuals"][1])
    assert [c["status"] for c in report["components"]] == ["ok", "over_budget"]
    assert outcome.orbits[0] is not None and outcome.orbits[1] is None
    assert refined == [0]
    passed = {c["name"]: c["passed"] for c in report["criteria"]}
    assert passed["strip_residual_budget"] is False


@pytest.mark.parametrize("failing_call, which", [(1, "target"), (2, "orbit")])
def test_linking_error_is_recorded_in_the_pair(hopf_run, monkeypatch, failing_call, which):
    # the first linking number is the cores', the second the orbits'
    calls = []
    linking_number = pipeline.linking_number

    def fails_once(a, b):
        calls.append(1)
        if len(calls) == failing_call:
            raise LinkingError("strands 1e-9 apart")
        return linking_number(a, b)

    monkeypatch.setattr(pipeline, "linking_number", fails_once)
    arcs = [resample_arclength(c, 256) for c in hopf_run["link"].components]
    pair = pipeline._linking_pair(arcs, hopf_run["outcome"].orbits, 0, 1)
    assert pair["error"] == f"LinkingError({which}): strands 1e-9 apart"
    assert ("target" in pair) == (which == "orbit")
    assert "match" not in pair


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


def _coarse_hopf_report(components, seed=0) -> dict:
    # the benchmark's hopf run: the Hopf fixture on a coarser strip and orbit
    link = LinkSpec(1.0, tuple(components))
    cfg = RunConfig(lam=1.0, directions=400, w_half_factor=0.01, strip_s_per_2pi=18,
                    strip_t_nodes=9, orbit_samples=256, seed=seed)
    return verify(link, synthesize(link, cfg).expansion, cfg).report


@pytest.fixture(scope="module")
def coarse_hopf_report():
    return _coarse_hopf_report(presets.hopf(radius=14.0))


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_benchmark_hopf_orbits_close_in_two_newton_steps(coarse_hopf_report):
    # 44 shooting nodes at exact arc steps of the 88-long cores: the seed
    # residual is the 2e-4 orbit-core offset, not a segment-length mismatch
    for comp in coarse_hopf_report["components"]:
        assert comp["newton_iterations"] <= 2


# change -> (component order, sign of the linking numbers, relative tolerances
# on residual, period and multiplier moduli). Direction seed 7 moved them by
# up to 11 %, 3.9e-7 and 2.8e-3 when measured
END_TO_END_CHANGES = {
    "swap": ([1, 0], 1, (1e-7, 1e-10, 1e-8)),
    "reverse": ([0, 1], -1, (0.2, 1e-5, 1e-2)),
    "seed": ([0, 1], 1, (0.2, 1e-6, 1e-2)),
}


@pytest.mark.parametrize("change", sorted(END_TO_END_CHANGES))
def test_end_to_end_under_relabeling_and_orientation(coarse_hopf_report, change):
    # synthesize and verify again with the components swapped, with
    # component 1 traversed backwards (c(-t): negated sin coefficients), or
    # with another direction seed. A swap permutes every per-component number
    # up to the rounding of the refit; a reversal flips the linking numbers
    # and refits a mirror problem; a seed rotates the basis and refits
    a, b = presets.hopf(radius=14.0)
    comps = {"swap": (b, a), "reverse": (a, FourierCurve(b.cos_coeffs, -b.sin_coeffs)),
             "seed": (a, b)}[change]
    order, sign, (tol_res, tol_period, tol_mu) = END_TO_END_CHANGES[change]
    base = coarse_hopf_report
    other = _coarse_hopf_report(comps, seed=7 if change == "seed" else 0)
    for comp, j in zip(base["components"], order):
        partner = other["components"][j]
        assert _rel(partner["strip_residual"], comp["strip_residual"]) < tol_res
        assert _rel(partner["period"], comp["period"]) < tol_period
        for mu, mu_partner in zip(comp["multipliers"], partner["multipliers"]):
            assert _rel(abs(mu_partner), abs(mu)) < tol_mu
    (pair,), (pair_other,) = base["pairs"], other["pairs"]
    assert pair["target"] == pair["linking"] == -1
    assert pair_other["target"] == pair_other["linking"] == sign * pair["target"]
    verdicts = [[(c["name"], c["passed"]) for c in r["criteria"]] for r in (base, other)]
    assert verdicts[0] == verdicts[1]


def test_end_to_end_under_a_rigid_motion(unknot_run):
    # rotate and translate the unknot, and its wave directions and
    # polarizations with it: the fit is the moved field up to the rounding of
    # the refit (a translation turns each coefficient pair by a phase, which
    # the ridge does not see), and so are the certificates
    rot = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    rot *= np.linalg.det(rot)
    (c,) = unknot_run["link"].components
    cos = c.cos_coeffs @ rot.T
    cos[0] += [0.4, -1.3, 0.7]
    moved = LinkSpec(1.0, (FourierCurve(cos, c.sin_coeffs @ rot.T),))
    cfg = unknot_run["config"]
    k, e = make_basis(cfg.directions, np.random.default_rng(cfg.seed))
    _, cauchy = pipeline.build_geometry(moved, cfg)
    expansion, fit = fit_global(cauchy, cfg.eps_tilde, k @ rot.T, e @ rot.T, 1.0,
                                ridge=cfg.ridge)
    base, other = unknot_run["report"], verify(moved, expansion, cfg).report
    assert _rel(fit.tube_residuals[0], unknot_run["synthesis"].fit.tube_residuals[0]) < 1e-6
    assert _rel(other["strip_residuals"][0], base["strip_residuals"][0]) < 1e-6
    (comp,), (partner,) = base["components"], other["components"]
    for key in ("period", "hausdorff"):
        assert _rel(partner[key], comp[key]) < 1e-6, key
    assert _rel(np.log(partner["multipliers"][0]), np.log(comp["multipliers"][0])) < 1e-6
    verdicts = [[(c["name"], c["passed"]) for c in r["criteria"]] for r in (base, other)]
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("run", ["unknot_run", "hopf_run", "trefoil_run", "borromean_run"])
def test_fit_and_verify_report_the_same_strip_residuals(run, request):
    # both read strip.strip_residual on the same strip grid, bit for bit
    fixture = request.getfixturevalue(run)
    assert fixture["synthesis"].fit.tube_residuals == fixture["report"]["strip_residuals"]


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
    assert not outcome.passed
    assert outcome.report["components"][0]["status"] == "over_budget"
    assert outcome.orbits == [None]
    failed = {c["name"] for c in outcome.report["criteria"] if not c["passed"]}
    assert {"strip_residual_budget", "orbits_converged"} <= failed


def test_overflowing_monodromy_is_a_dynamics_error(unknot_run, monkeypatch):
    monkeypatch.setattr(pipeline, "refine_orbit", lambda *a, **k: overflowing_orbit())
    outcome = verify(unknot_run["link"], unknot_run["synthesis"].expansion,
                     unknot_run["config"])
    comp = outcome.report["components"][0]
    assert comp["status"] == "dynamics_error"
    assert comp["error"].startswith("MonodromyOverflow") and "T = 768" in comp["error"]
    assert outcome.orbits == [None]
    failed = {c["name"] for c in outcome.report["criteria"] if not c["passed"]}
    assert "orbits_converged" in failed
    # the verify subcommand maps that failure to the dynamics exit code
    code = next(code for names, code in cli.VERIFY_EXIT_CODES if names & failed)
    assert code == cli.EXIT_DYNAMICS == 4
