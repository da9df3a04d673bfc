"""Synthesis and verification orchestration.

synthesize: link -> tube charts -> strip Cauchy data -> basis -> global
Beltrami expansion fitted to every tube at once, against one tolerance eps~.

verify: expansion + link -> strip residual recheck, eigen-relation spot check,
orbit refinement with Floquet data, confinement and winding certificates,
pairwise linking numbers. Every certificate is read off the fitted global
field itself. Emits a machine-readable report with per-criterion pass/fail.
The gate tolerances are the constants below; the other fixed numerics are
the defaults of the functions that apply them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .charts import build_charts
from .config import RunConfig
from .curves import LinkSpec
from .dynamics import (CLOSURE_TOL, IntegrationError, NewtonFailure, OrbitEscape,
                       monodromy, refine_orbit)
from .field import BeltramiExpansion, make_basis
from .fileio import REPORT_SCHEMA
from .fitting import FitReport, fit_global
from .strip import build_cauchy_data, closedness_check
from .topology import LinkingError, hausdorff_distance, linking_number, tube_confinement


# max d(pullback gamma) residual on the strip: synthesize's gate and verify's criterion
CLOSEDNESS_TOL = 1e-8
CURL_CHECK_POINTS = 100   # random points for the eigen-relation spot check
CURL_TOL = 1e-6           # relative FD curl error gate
DIV_TOL = 1e-8            # FD divergence gate


class PipelineError(RuntimeError):
    """Hard failure of a synthesis gate (an existence hypothesis is violated)."""


def _reconcile(link: LinkSpec, config: RunConfig | None) -> RunConfig:
    if config is None:
        return RunConfig(lam=link.lam)
    if config.lam != link.lam:
        return config.replace(lam=link.lam)
    return config


def build_geometry(link: LinkSpec, config: RunConfig):
    """Deterministic chart + Cauchy-data construction shared by both commands."""
    charts = build_charts(link, config)
    cauchy = [build_cauchy_data(ch, config) for ch in charts]
    return charts, cauchy


def fd_curl_divergence(field, points: np.ndarray, h: float = 5e-3):
    """Finite-difference curl and divergence checks at the given points.

    Five-point central stencils, truncation O(h^4). The step default balances
    h^4 truncation against round-off from summing the expansion; for coefficient
    totals up to ~1e5 and lam near 1 the divergence error stays below 1e-8.
    Returns (max relative |curl u - lam u| error, max |div u|). The relative
    error is measured against max(|lam u|, 1e-12) pointwise.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    jac = np.empty((pts.shape[0], 3, 3))
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        jac[:, :, j] = (-field(pts + 2 * dx) + 8.0 * field(pts + dx)
                        - 8.0 * field(pts - dx) + field(pts - 2 * dx)) / (12.0 * h)
    curl = np.stack([jac[:, 2, 1] - jac[:, 1, 2],
                     jac[:, 0, 2] - jac[:, 2, 0],
                     jac[:, 1, 0] - jac[:, 0, 1]], axis=1)
    target = field.lam * field(pts)
    scale = np.maximum(np.linalg.norm(target, axis=1), 1e-12)
    rel = np.linalg.norm(curl - target, axis=1) / scale
    div = np.abs(jac[:, 0, 0] + jac[:, 1, 1] + jac[:, 2, 2])
    return float(np.max(rel)), float(np.max(div))


def check_points(link: LinkSpec, n: int, seed: int) -> np.ndarray:
    """Deterministic sample points in the inflated bounding box of the link."""
    rng = np.random.default_rng(seed + 1)
    samples = np.vstack([c.point(np.linspace(0, 2 * np.pi, 64, endpoint=False))
                         for c in link.components])
    lo, hi = samples.min(axis=0) - 0.5, samples.max(axis=0) + 0.5
    return lo + (hi - lo) * rng.random((n, 3))


@dataclass
class SynthesisResult:
    link: LinkSpec
    config: RunConfig
    charts: list
    cauchy: list
    closedness: list
    expansion: BeltramiExpansion
    fit: FitReport
    timings: dict

    @property
    def success(self) -> bool:
        return self.fit.success


def synthesize(link: LinkSpec, config: RunConfig | None = None) -> SynthesisResult:
    """Fit a global Beltrami expansion to the Cauchy data of every tube.

    Raises PipelineError when the closedness gate fails (the strip data would
    violate the local existence theorem); a fit residual over budget is not an
    exception, it is reported through FitReport.success.
    """
    config = _reconcile(link, config)
    timings = {}
    t0 = time.perf_counter()
    charts, cauchy = build_geometry(link, config)
    closedness = [closedness_check(d) for d in cauchy]
    timings["geometry_s"] = time.perf_counter() - t0
    worst = max(closedness)
    if worst > CLOSEDNESS_TOL:
        raise PipelineError(
            f"Cauchy-data closedness residual {worst:.3e} exceeds "
            f"{CLOSEDNESS_TOL:g}; the pullback of gamma is not closed")

    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    k, e = make_basis(config.directions, rng)
    expansion, fit = fit_global(cauchy, config.eps_tilde, k, e, link.lam,
                                ridge=config.ridge)
    timings["fit_s"] = time.perf_counter() - t0
    return SynthesisResult(link, config, charts, cauchy, closedness, expansion,
                           fit, timings)


def fit_report_dict(fit: FitReport) -> dict:
    return {"basis_members": fit.basis_members, "n_points": fit.n_points,
            "tube_residuals": fit.tube_residuals, "tube_budgets": fit.tube_budgets,
            "success": fit.success, "condition": fit.condition, "rank": fit.rank,
            "weighted_objective": fit.weighted_objective, "ridge": fit.ridge,
            "advice": fit.advice}


@dataclass
class VerificationOutcome:
    report: dict
    passed: bool
    budget_ok: bool
    dynamics_ok: bool
    topology_ok: bool
    orbits: list = dc_field(default_factory=list)  # PeriodicOrbit or None per component


def _criterion(criteria: list, name: str, passed: bool, detail: str) -> bool:
    criteria.append({"name": name, "passed": bool(passed), "detail": detail})
    return bool(passed)


def _certify_orbit(expansion: BeltramiExpansion, chart, config: RunConfig):
    """Refine one component's orbit; return it with its report entries."""
    orbit = refine_orbit(expansion, chart, rtol=config.rtol, atol=config.atol,
                         n_samples=config.orbit_samples)
    flo = monodromy(expansion, orbit)
    cert = tube_confinement(orbit.points, chart)
    haus = hausdorff_distance(orbit.points, chart.frame.arc.points)
    return orbit, {
        "status": "ok",
        "period": orbit.period,
        "closure_residual": orbit.closure_residual,
        "newton_iterations": orbit.newton_iterations,
        "multipliers": [flo.multipliers[0], flo.multipliers[1]],
        "det_monodromy": flo.det,
        "classification": flo.classification,
        "margin": flo.margin,
        "flow_eigen_residual": flo.flow_eigen_residual,
        "confined": cert.confined,
        "winding": cert.winding,
        "margin_rho": cert.margin_rho,
        "margin_z": cert.margin_z,
        "hausdorff": haus,
        "hausdorff_tol": config.hausdorff_tol,
    }


def verify(link: LinkSpec, expansion: BeltramiExpansion,
           config: RunConfig | None = None) -> VerificationOutcome:
    """Check every claim the synthesized field makes about the link.

    Dynamics failures (orbit escape, Newton breakdown) are recorded per
    component and verification continues for the remaining components. A
    component whose strip residual is not below its eps~ is marked
    "over_budget" and gets no orbit: its fit is not close enough to the
    strip data for an orbit near the core to be expected.
    """
    if expansion.lam != link.lam:
        raise ValueError(f"lambda mismatch: field has {expansion.lam!r}, "
                         f"link has {link.lam!r}")
    config = _reconcile(link, config)
    timings = {}
    criteria: list[dict] = []

    t0 = time.perf_counter()
    charts, cauchy = build_geometry(link, config)
    closedness = [closedness_check(d) for d in cauchy]
    strip_residuals = []
    for data in cauchy:
        u = expansion(data.points.reshape(-1, 3))
        strip_residuals.append(
            float(np.max(np.linalg.norm(u - data.w.reshape(-1, 3), axis=1))))
    timings["geometry_s"] = time.perf_counter() - t0

    closed_ok = _criterion(
        criteria, "cauchy_closedness", max(closedness) <= CLOSEDNESS_TOL,
        f"max residual {max(closedness):.3e} vs {CLOSEDNESS_TOL:g}")
    budget_ok = _criterion(
        criteria, "strip_residual_budget",
        all(r < config.eps_tilde for r in strip_residuals),
        "per-tube max |u - w| on the strip vs eps~")

    t0 = time.perf_counter()
    pts = check_points(link, CURL_CHECK_POINTS, config.seed)
    curl_rel, div_max = fd_curl_divergence(expansion, pts)
    timings["eigen_check_s"] = time.perf_counter() - t0
    eigen_ok = _criterion(
        criteria, "eigen_relation",
        curl_rel < CURL_TOL and div_max < DIV_TOL,
        f"FD curl rel {curl_rel:.3e} vs {CURL_TOL:g}, "
        f"FD div {div_max:.3e} vs {DIV_TOL:g}")

    components = []
    orbits = []
    t0 = time.perf_counter()
    for i, chart in enumerate(charts):
        entry: dict = {"index": i,
                       "strip_residual": strip_residuals[i],
                       "strip_budget": config.eps_tilde,
                       "closedness": closedness[i],
                       "tube_radius": chart.radius,
                       "strip_half_width": chart.w_half,
                       "core_length": chart.length}
        orbit = None
        if strip_residuals[i] >= config.eps_tilde:
            entry["status"] = "over_budget"
        else:
            try:
                orbit, certificate = _certify_orbit(expansion, chart, config)
                entry.update(certificate)
            except (OrbitEscape, NewtonFailure, IntegrationError) as exc:
                entry.update({"status": "dynamics_error",
                              "error": f"{type(exc).__name__}: {exc}"})
        orbits.append(orbit)
        components.append(entry)
    timings["dynamics_s"] = time.perf_counter() - t0

    converged = [o is not None for o in orbits]
    dynamics_ok = _criterion(
        criteria, "orbits_converged", all(converged),
        f"{sum(converged)}/{len(orbits)} orbits refined to closure "
        f"{CLOSURE_TOL:g}")
    hyper_ok = _criterion(
        criteria, "orbits_hyperbolic",
        all(c.get("classification") == "hyperbolic_saddle" and c.get("margin", 0) > 0
            for c in components if c["status"] == "ok") and all(converged),
        "Floquet multipliers off the unit circle with positive margin")
    det_ok = _criterion(
        criteria, "unit_determinant",
        all(abs(c["det_monodromy"] - 1.0) < 1e-4
            for c in components if c["status"] == "ok") and all(converged),
        "|det M(T) - 1| < 1e-4 (Liouville)")
    confine_ok = _criterion(
        criteria, "orbits_confined",
        all(c.get("confined") and c.get("winding") == 1
            for c in components if c["status"] == "ok") and all(converged),
        "each orbit stays in its tube and winds once")
    haus_ok = _criterion(
        criteria, "hausdorff_distance",
        all(c.get("hausdorff", np.inf) < config.hausdorff_tol
            for c in components if c["status"] == "ok") and all(converged),
        f"orbit-to-core Hausdorff distance < {config.hausdorff_tol:g}")

    t0 = time.perf_counter()
    pairs = []
    linking_ok = True
    arcs = [ch.frame.arc for ch in charts]
    for i in range(len(charts)):
        for j in range(i + 1, len(charts)):
            pair: dict = {"a": i, "b": j}
            try:
                target = linking_number(arcs[i].points, arcs[j].points)
                pair["target"] = target.link
                pair["target_defect"] = target.defect
            except LinkingError as exc:
                pair["error"] = f"LinkingError(target): {exc}"
                linking_ok = False
                pairs.append(pair)
                continue
            if orbits[i] is None or orbits[j] is None:
                pair["error"] = "orbit missing; linking not computed"
                linking_ok = False
                pairs.append(pair)
                continue
            try:
                got = linking_number(orbits[i].points, orbits[j].points)
                pair["linking"] = got.link
                pair["defect"] = got.defect
                pair["match"] = bool(got.link == target.link)
                linking_ok = linking_ok and pair["match"]
            except LinkingError as exc:
                pair["error"] = f"LinkingError(orbit): {exc}"
                linking_ok = False
            pairs.append(pair)
    timings["topology_s"] = time.perf_counter() - t0
    linking_ok = _criterion(
        criteria, "linking_matrix", linking_ok,
        "orbit pairwise Gauss linking numbers equal the core link's")

    topology_ok = bool(confine_ok and haus_ok and linking_ok)
    passed = bool(closed_ok and budget_ok and eigen_ok and dynamics_ok
                  and hyper_ok and det_ok and topology_ok)
    report = {
        "schema": REPORT_SCHEMA,
        "lambda": link.lam,
        "config": config.to_dict(),
        "basis_size": expansion.n_members,
        "closedness": closedness,
        "strip_residuals": strip_residuals,
        "strip_budgets": [config.eps_tilde] * len(charts),
        "eigen_relation": {"curl_rel_max": curl_rel, "div_max": div_max,
                           "points": int(pts.shape[0])},
        "components": components,
        "pairs": pairs,
        "criteria": criteria,
        "passed": passed,
        "timings": timings,
    }
    return VerificationOutcome(report, passed, bool(budget_ok and closed_ok),
                               bool(dynamics_ok and hyper_ok and det_ok),
                               topology_ok, orbits)
