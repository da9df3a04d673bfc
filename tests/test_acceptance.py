"""Acceptance criteria for the synthesized-Beltrami-link pipeline.

Each test checks one criterion at its stated tolerance and runtime bound and
prints a single pass/fail line (visible with pytest -s or on failure). Runtime
bounds are CPU seconds of the calling thread (time.thread_time). Process CPU
time would also count idle BLAS worker threads, which spin and can double it,
and wall time would count other load on the machine. The four end-to-end runs
come from the session fixtures in conftest.
"""

import time

import numpy as np

from knotflows import presets
from knotflows.charts import TubeChart
from knotflows.curves import resample_arclength
from knotflows.dynamics import monodromy, refine_orbit
from knotflows.field import BeltramiExpansion, direction_set, polarization_pair
from knotflows.framing import frame_transport
from knotflows.marcher import FlatMetric, MarchGrid, march
from knotflows.paper import (HelmholtzScalarExpansion, TubeModelField, beltramize,
                             check_points, fd_curl_divergence, make_error_budget,
                             strip_monodromy, to_scalar_components)


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def _chart(curve, radius, w_half, n=1024):
    return TubeChart(frame_transport(resample_arclength(curve, n)),
                     radius, w_half)


def test_criterion_1_strip_monodromy():
    circle = _chart(presets.circle(1.0)[0], radius=0.5, w_half=0.1)
    trefoil = _chart(presets.trefoil()[0], radius=0.1, w_half=0.02)
    t0 = time.thread_time()
    mu_c, period_c = strip_monodromy(circle)
    mu_t, period_t = strip_monodromy(trefoil)
    dt = time.thread_time() - t0
    dc = abs(mu_c - np.exp(-2.0 * np.pi))
    dl = abs(mu_t - np.exp(-trefoil.length))
    ok = dc < 1e-6 and dl < 1e-6 and dt < 1.0
    _line(1, "strip monodromy", ok,
          f"circle |mu - e^-2pi| = {dc:.2e}, trefoil |mu - e^-L| = {dl:.2e}, "
          f"{dt:.2f} s")
    assert dc < 1e-6
    assert abs(period_c - 2.0 * np.pi) < 1e-8
    assert dl < 1e-6
    assert abs(period_t - trefoil.length) < 1e-6
    assert dt < 1.0


def test_criterion_2_eigen_relation(unknot_run):
    u = unknot_run["synthesis"].expansion
    pts = check_points(unknot_run["link"], 100, unknot_run["config"].seed)
    t0 = time.thread_time()
    curl_rel, div_max = fd_curl_divergence(u, pts)
    dt = time.thread_time() - t0
    ok = curl_rel < 1e-6 and div_max < 1e-8 and dt < 1.0
    _line(2, "eigen-relation", ok,
          f"FD curl rel {curl_rel:.2e}, |div| {div_max:.2e} "
          f"at {pts.shape[0]} points, {dt:.2f} s")
    assert curl_rel < 1e-6
    assert div_max < 1e-8
    assert dt < 1.0


def test_criterion_3_flat_marcher_identity():
    grid = MarchGrid(np.linspace(-1.0, 1.0, 9), 16, 2.0 * np.pi)
    flat = FlatMetric(grid)
    a0 = np.zeros((2, 9, 16))
    a0[0] = 1.0
    t0 = time.thread_time()
    errs = []
    for n in (6, 12, 24):
        res = march(flat, 1.0, 0.5, n, a0=a0)
        errs.append(max(np.max(np.abs(res.a[-1, 0] - np.cos(0.5))),
                        np.max(np.abs(res.a[-1, 1] + np.sin(0.5)))))
    dt = time.thread_time() - t0
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok = errs[-1] < 1e-8 and np.all(orders > 3.5) and dt < 5.0
    _line(3, "flat-marcher identity", ok,
          f"error at rho = 0.5: {errs[-1]:.2e}, orders {orders[0]:.2f}, "
          f"{orders[1]:.2f}, {dt:.2f} s")
    assert errs[-1] < 1e-8
    assert np.all(orders > 3.5)
    assert dt < 5.0


def test_criterion_4_monodromy_oracle():
    chart = _chart(presets.circle(1.0)[0], radius=0.5, w_half=0.1, n=96)
    field = TubeModelField(chart)
    # the chart core is the model's orbit; its closing shoot, the only
    # integration, is timed along with the Floquet assembly
    t0 = time.thread_time()
    orbit = refine_orbit(field, chart, rtol=1e-9, atol=1e-11)
    flo = monodromy(field, orbit)
    dt = time.thread_time() - t0
    mu_u, mu_s = flo.multipliers
    rel_u = abs(mu_u - np.exp(2.0 * np.pi)) / np.exp(2.0 * np.pi)
    rel_s = abs(mu_s - np.exp(-2.0 * np.pi)) / np.exp(-2.0 * np.pi)
    prod = abs(mu_u * mu_s - 1.0)
    ok = rel_u < 1e-4 and rel_s < 1e-4 and prod < 1e-4 and dt < 10.0
    _line(4, "monodromy oracle", ok,
          f"rel errors {rel_u:.2e}, {rel_s:.2e}, |mu1 mu2 - 1| = {prod:.2e}, "
          f"{dt:.1f} s")
    assert rel_u < 1e-4
    assert rel_s < 1e-4
    assert prod < 1e-4
    assert dt < 10.0


def test_criterion_5_liouville_determinant(unknot_run, trefoil_run, hopf_run,
                                           borromean_run):
    worst = 0.0
    n_orbits = 0
    for run in (unknot_run, trefoil_run, hopf_run, borromean_run):
        for comp in run["report"]["components"]:
            assert comp["status"] == "ok"
            worst = max(worst, abs(comp["det_monodromy"] - 1.0))
            n_orbits += 1
    ok = worst < 1e-4
    _line(5, "Liouville determinant", ok,
          f"max |det M(T) - 1| = {worst:.2e} over {n_orbits} orbits")
    assert worst < 1e-4


def test_criterion_6_end_to_end_unknot(unknot_run):
    report = unknot_run["report"]
    comp = report["components"][0]
    residual = report["strip_residuals"][0]
    runtime = unknot_run["t_synthesize"] + unknot_run["t_verify"]
    assert unknot_run["config"].directions == 200
    ok = (residual < 1e-3 and comp["confined"] and comp["winding"] == 1
          and comp["hausdorff"] < 1e-2
          and comp["classification"] == "hyperbolic_saddle"
          and comp["margin"] > 0 and runtime < 120.0)
    _line(6, "end-to-end unknot", ok,
          f"residual {residual:.2e}, winding {comp['winding']}, "
          f"Hausdorff {comp['hausdorff']:.2e}, margin {comp['margin']:.2f}, "
          f"{runtime:.0f} s")
    assert residual < 1e-3
    assert comp["confined"] and comp["winding"] == 1
    assert comp["hausdorff"] < 1e-2
    assert comp["classification"] == "hyperbolic_saddle" and comp["margin"] > 0
    assert runtime < 120.0


def test_criterion_7_end_to_end_hopf(hopf_run):
    report = hopf_run["report"]
    runtime = hopf_run["t_synthesize"] + hopf_run["t_verify"]
    assert len(report["components"]) == 2
    for comp in report["components"]:
        assert comp["status"] == "ok"
        assert comp["confined"] and comp["winding"] == 1
    pair = report["pairs"][0]
    ok = (abs(pair["linking"]) == 1 and pair["defect"] < 0.1
          and runtime < 300.0)
    _line(7, "end-to-end Hopf", ok,
          f"linking {pair['linking']}, defect {pair['defect']:.2e}, "
          f"{runtime:.0f} s")
    assert abs(pair["linking"]) == 1
    assert pair["defect"] < 0.1
    assert runtime < 300.0


def test_criterion_8_end_to_end_borromean(borromean_run):
    report = borromean_run["report"]
    runtime = borromean_run["t_synthesize"] + borromean_run["t_verify"]
    assert len(report["components"]) == 3
    for comp in report["components"]:
        assert comp["status"] == "ok"
        assert comp["confined"] and comp["winding"] == 1
    links = [pair["linking"] for pair in report["pairs"]]
    ok = links == [0, 0, 0] and runtime < 600.0
    _line(8, "end-to-end Borromean", ok,
          f"pairwise linking {links}, {runtime:.0f} s")
    assert links == [0, 0, 0]
    assert runtime < 600.0


def test_criterion_9_budget_inequalities():
    worst_margin = np.inf
    for s, sigma in ((0, 1), (1, 4), (2, 10)):
        budget = make_error_budget([1e-3, 2e-3], s=s)
        assert budget.sigma == sigma
        assert budget.verify(50)
        bound = 1e-3 / (6.0 * sigma)
        for m in range(1, 51):
            assert budget.epsilon(m) < bound
            assert budget.tail(m) < budget.epsilon(m)
            # the tail is the closed-form geometric sum, not a truncation
            assert budget.tail(m) == 0.5 * budget.epsilon(m)
            worst_margin = min(worst_margin, bound - budget.epsilon(m))
    _line(9, "budget inequalities", True,
          f"strict for 50 terms + closed-form tail at sigma in (1, 4, 10), "
          f"slack >= {worst_margin:.2e}")


def test_criterion_10_beltramize_identities():
    rng = np.random.default_rng(21)
    dirs = direction_set(9, rng)
    e = np.array([polarization_pair(k)[0] for k in dirs])
    u = BeltramiExpansion(2.0, dirs, e, rng.standard_normal(9),
                          rng.standard_normal(9))
    v = beltramize(*to_scalar_components(u))
    fixed = max(np.max(np.abs(v.alpha - u.alpha)),
                np.max(np.abs(v.beta - u.beta)))

    anti = np.array([a * (polarization_pair(k)[0]
                          - 1j * np.cross(k, polarization_pair(k)[0]))
                     for a, k in zip(rng.standard_normal(9)
                                     + 1j * rng.standard_normal(9), dirs)])
    comps = tuple(HelmholtzScalarExpansion(2.0, dirs, anti[:, i])
                  for i in range(3))
    killed = max(np.max(np.abs(beltramize(*comps).alpha)),
                 np.max(np.abs(beltramize(*comps).beta)))

    pts = rng.uniform(-1.0, 1.0, (50, 3))
    curl_rel, _ = fd_curl_divergence(v, pts)
    ok = fixed < 1e-12 and killed < 1e-12 and curl_rel < 1e-6
    _line(10, "beltramize identities", ok,
          f"fixed-point {fixed:.2e}, annihilation {killed:.2e}, "
          f"FD eigen-check {curl_rel:.2e}")
    assert fixed < 1e-12
    assert killed < 1e-12
    assert curl_rel < 1e-6
