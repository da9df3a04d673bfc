"""Synthesis and verification orchestration.

synthesize: link -> tube charts -> strip Cauchy data -> basis -> global
Beltrami expansion fitted to every tube at once, against one tolerance eps~.

verify: expansion + link -> strip residual recheck, eigen-relation bounds on
all of R^3 from the member algebra, orbit refinement with Floquet data,
confinement and winding certificates, pairwise linking numbers. Every
certificate is read off the fitted global field itself. Emits a
machine-readable report with per-criterion pass/fail. The gate tolerances
are the constants below; the other fixed numerics are the defaults of the
functions that apply them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from .charts import build_charts
from .config import RunConfig
from .curves import LinkSpec
from .dynamics import CLOSURE_TOL, DynamicsError, monodromy, refine_orbit
from .field import BeltramiExpansion, eigen_bounds, make_basis
from .fileio import REPORT_SCHEMA
from .fitting import FitReport, fit_global
from .strip import build_cauchy_data, strip_residual
from .topology import LinkingError, linking_number, tube_confinement


# max d(pullback gamma) residual on the strip: synthesize's gate and verify's criterion
CLOSEDNESS_TOL = 1e-8
# bound on both |curl u - lam u| and |div u| over R^3: verify's eigen_relation
EIGEN_TOL = 1e-8


class PipelineError(RuntimeError):
    """Hard failure of a synthesis gate (an existence hypothesis is violated)."""


def _same_lambda(link: LinkSpec, **given: float) -> None:
    """Refuse a config or field whose Beltrami eigenvalue is not the link's."""
    for what, lam in given.items():
        if lam != link.lam:
            raise ValueError(f"lambda mismatch: {what} has {lam!r}, link has {link.lam!r}")


def build_geometry(link: LinkSpec, config: RunConfig):
    """Deterministic chart + Cauchy-data construction shared by both commands."""
    charts = build_charts(link, config)
    cauchy = [build_cauchy_data(ch, config) for ch in charts]
    return charts, cauchy


@dataclass
class SynthesisResult:
    link: LinkSpec
    config: RunConfig
    closedness: list
    expansion: BeltramiExpansion
    fit: FitReport
    timings: dict


def synthesize(link: LinkSpec, config: RunConfig) -> SynthesisResult:
    """Fit a global Beltrami expansion to the Cauchy data of every tube.

    Raises PipelineError when the closedness gate fails (the strip data would
    violate the local existence theorem); a fit residual over budget is not an
    exception, it is reported through FitReport.success. A config of another
    lambda than the link's raises ValueError.
    """
    _same_lambda(link, config=config.lam)
    timings = {}
    t0 = time.perf_counter()
    _, cauchy = build_geometry(link, config)
    closedness = [d.closedness for d in cauchy]
    timings["geometry_s"] = time.perf_counter() - t0
    worst = np.max(closedness)
    if not worst <= CLOSEDNESS_TOL:
        raise PipelineError(
            f"Cauchy-data closedness residual {worst:.3e} exceeds "
            f"{CLOSEDNESS_TOL:g}; the pullback of gamma is not closed")

    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    k, e = make_basis(config.directions, rng)
    expansion, fit = fit_global(cauchy, config.eps_tilde, k, e, link.lam,
                                ridge=config.ridge)
    timings["fit_s"] = time.perf_counter() - t0
    return SynthesisResult(link, config, closedness, expansion, fit, timings)


@dataclass
class VerificationOutcome:
    report: dict
    passed: bool
    orbits: list = dc_field(default_factory=list)  # PeriodicOrbit or None per component


def _criterion(criteria: list, name: str, passed: bool, detail: str) -> None:
    criteria.append({"name": name, "passed": bool(passed), "detail": detail})


def _certify_orbit(expansion: BeltramiExpansion, chart, config: RunConfig):
    """Refine one component's orbit; return it with its report entries."""
    orbit = refine_orbit(expansion, chart, rtol=config.rtol, atol=config.atol,
                         n_samples=config.orbit_samples)
    flo = monodromy(expansion, orbit)
    cert = tube_confinement(orbit.points, chart)
    return orbit, {
        "status": "ok",
        "period": orbit.period,
        "closure_residual": orbit.closure_residual,
        "newton_iterations": orbit.newton_iterations,
        # JSON has no complex numbers: an elliptic orbit's pair is written as [re, im]
        "multipliers": [[m.real, m.imag] if isinstance(m, complex) else m
                        for m in flo.multipliers],
        "det_monodromy": flo.det,
        "classification": flo.classification,
        "margin": flo.margin,
        "flow_eigen_residual": flo.flow_eigen_residual,
        "confined": cert.confined,
        "winding": cert.winding,
        "margin_rho": cert.margin_rho,
        "margin_z": cert.margin_z,
        "hausdorff": cert.hausdorff,
        "hausdorff_tol": config.hausdorff_tol,
    }


def _linking_pair(arcs, orbits, i: int, j: int) -> dict:
    """Report entry of components i < j: the cores' linking number and the
    orbits', or the error that stopped either."""
    pair: dict = {"a": i, "b": j}
    try:
        target = linking_number(arcs[i].points, arcs[j].points)
    except LinkingError as exc:
        pair["error"] = f"LinkingError(target): {exc}"
        return pair
    pair.update(target=target.link, target_defect=target.defect)
    if orbits[i] is None or orbits[j] is None:
        pair["error"] = "orbit missing; linking not computed"
        return pair
    try:
        got = linking_number(orbits[i].points, orbits[j].points)
    except LinkingError as exc:
        pair["error"] = f"LinkingError(orbit): {exc}"
        return pair
    pair.update(linking=got.link, defect=got.defect, match=bool(got.link == target.link))
    return pair


def verify(link: LinkSpec, expansion: BeltramiExpansion,
           config: RunConfig) -> VerificationOutcome:
    """Check every claim the synthesized field makes about the link.

    Dynamics failures (any DynamicsError) are recorded per
    component and verification continues for the remaining components. A
    component whose strip residual is not below its eps~ is marked
    "over_budget" and gets no orbit: its fit is not close enough to the
    strip data for an orbit near the core to be expected. A field or config
    of another lambda than the link's raises ValueError.
    """
    _same_lambda(link, field=expansion.lam, config=config.lam)
    timings = {}
    criteria: list[dict] = []

    t0 = time.perf_counter()
    charts, cauchy = build_geometry(link, config)
    closedness = [d.closedness for d in cauchy]
    strip_residuals = [strip_residual(expansion, d) for d in cauchy]
    timings["geometry_s"] = time.perf_counter() - t0

    worst = np.max(closedness)
    _criterion(
        criteria, "cauchy_closedness", worst <= CLOSEDNESS_TOL,
        f"max residual {worst:.3e} vs {CLOSEDNESS_TOL:g}")
    _criterion(
        criteria, "strip_residual_budget",
        all(r < config.eps_tilde for r in strip_residuals),
        "per-tube max |u - w| on the strip vs eps~")

    curl_bound, div_bound = eigen_bounds(expansion)
    _criterion(
        criteria, "eigen_relation", curl_bound < EIGEN_TOL and div_bound < EIGEN_TOL,
        f"on all of R^3, |curl u - lam u| <= {curl_bound:.3e} and "
        f"|div u| <= {div_bound:.3e} vs {EIGEN_TOL:g}")

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
        if not strip_residuals[i] < config.eps_tilde:
            entry["status"] = "over_budget"
        else:
            try:
                orbit, certificate = _certify_orbit(expansion, chart, config)
                entry.update(certificate)
            except DynamicsError as exc:
                entry.update({"status": "dynamics_error",
                              "error": f"{type(exc).__name__}: {exc}"})
        orbits.append(orbit)
        components.append(entry)
    timings["dynamics_s"] = time.perf_counter() - t0

    # an orbit exists exactly when its component's status is "ok", so once
    # every component is refined each entry carries every orbit key
    n_refined = sum(o is not None for o in orbits)
    refined = n_refined == len(orbits)
    _criterion(
        criteria, "orbits_converged", refined,
        f"{n_refined}/{len(orbits)} orbits refined to closure {CLOSURE_TOL:g}")
    _criterion(
        criteria, "orbits_hyperbolic",
        refined and all(c["classification"] == "hyperbolic_saddle" and c["margin"] > 0
                        for c in components),
        "Floquet multipliers off the unit circle with positive margin")
    _criterion(
        criteria, "unit_determinant",
        refined and all(abs(c["det_monodromy"] - 1.0) < 1e-4 for c in components),
        "|det M(T) - 1| < 1e-4 (Liouville)")
    _criterion(
        criteria, "orbits_confined",
        refined and all(c["confined"] and c["winding"] == 1 for c in components),
        "each orbit stays in its tube and winds once")
    _criterion(
        criteria, "hausdorff_distance",
        refined and all(c["hausdorff"] < config.hausdorff_tol for c in components),
        f"orbit-to-core Hausdorff distance < {config.hausdorff_tol:g}")

    t0 = time.perf_counter()
    arcs = [ch.frame.arc for ch in charts]
    pairs = [_linking_pair(arcs, orbits, i, j)
             for i, j in combinations(range(len(charts)), 2)]
    timings["topology_s"] = time.perf_counter() - t0
    _criterion(
        criteria, "linking_matrix", all(p.get("match", False) for p in pairs),
        "orbit pairwise Gauss linking numbers equal the core link's")

    passed = all(c["passed"] for c in criteria)
    report = {
        "schema": REPORT_SCHEMA,
        "lambda": link.lam,
        "config": config.to_dict(),
        "basis_size": expansion.n_members,
        "closedness": closedness,
        "strip_residuals": strip_residuals,
        "strip_budgets": [config.eps_tilde] * len(charts),
        "eigen_relation": {"curl_bound": curl_bound, "div_bound": div_bound},
        "components": components,
        "pairs": pairs,
        "criteria": criteria,
        "passed": passed,
        "timings": timings,
    }
    return VerificationOutcome(report, passed, orbits)
