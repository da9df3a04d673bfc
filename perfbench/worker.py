"""One benchmark workload in one process: set up, run whole rounds, check each.

    python3 perfbench/worker.py --workload hopf --seed 1 --seconds 40 --trace 0

Normally started by run.py, which caps the BLAS threads and puts src/ on
PYTHONPATH. Prints "ready" once the imports are done and the link is built
(--setup-only stops there), then one JSON line with the operation counts and
the metrics of the run.

A round is the user's flow: synthesize -> save_field -> load_field -> verify,
followed by the independent checks of checks.py. Rounds repeat while another
round of the last one's length still fits in --seconds, and there are always
at least MIN_ROUNDS, so every timing is a median of two or more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from knotflows import pipeline
from knotflows.fileio import load_field, save_field

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

MIN_ROUNDS = 2
END_TO_END_UNITS = {"synthesize_s": "s", "verify_s": "s", "peak_rss_mb": "MiB",
                    "strip_residual_max": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class OrbitCapture:
    """Keeps the PeriodicOrbit that verify refines for each component; the
    report carries the orbit's numbers but not its polyline."""

    def __init__(self):
        self.orbits = {}
        self._original = pipeline.refine_orbit

        def capture(field, chart, *args, **kwargs):
            orbit = self._original(field, chart, *args, **kwargs)
            self.orbits[chart.component_id] = orbit
            return orbit

        pipeline.refine_orbit = capture


def check_round(wl, link, cfg, result, field, outcome, orbits, rng):
    """All operations of one round, in a fixed order and number."""
    report = outcome.report
    ops = [checks.Check("synthesis", result.fit.success,
                        f"tube residuals {result.fit.tube_residuals}"),
           checks.Check("verify_report", outcome.passed,
                        str([c["name"] for c in report["criteria"] if not c["passed"]]))]
    for i, comp in enumerate(report["components"]):
        ok = (comp["status"] == "ok"
              and comp["classification"] == "hyperbolic_saddle" and comp["margin"] > 0
              and abs(comp["det_monodromy"] - 1.0) < 1e-4
              and comp["confined"] and comp["winding"] == 1
              and comp["hausdorff"] < cfg.hausdorff_tol)
        ops.append(checks.Check(f"orbit_certificate[{i}]", bool(ok),
                                comp.get("error", comp["status"])))
    for pair in report["pairs"]:
        ops.append(checks.Check(f"linking_number[{pair['a']},{pair['b']}]",
                                pair.get("match") is True, str(pair)))

    u = checks.PlaneWaveField.of(field)
    cores = [checks.dense_core(c) for c in link.components]
    lo = np.min([c.min(axis=0) for c in cores], axis=0) - 0.5
    hi = np.max([c.max(axis=0) for c in cores], axis=0) + 0.5
    ops.append(checks.eigen_relation(u, lo + (hi - lo) * rng.random((64, 3))))
    for i, curve in enumerate(link.components):
        ops.append(checks.core_tangent(u, curve, rng.uniform(0, 2 * np.pi, 256),
                                       cfg.eps_tilde, i))
        orbit = orbits.get(i)
        if orbit is None or report["components"][i]["status"] != "ok":
            ops += [checks.Check(f"{n}[{i}]", False, "no orbit")
                    for n in ("period", "floquet", "orbit_near_core", "orbit_flow")]
            continue
        mu_u, mu_s = report["components"][i]["multipliers"]
        ops.append(checks.period(orbit.period, checks.curve_length(curve), i))
        ops.append(checks.floquet(mu_u, mu_s, orbit.period, i))
        ops.append(checks.orbit_near_core(orbit.points, cores[i], cfg.hausdorff_tol, i))
        idx = rng.choice(orbit.points.shape[0], 4, replace=False)
        ops.append(checks.orbit_flow(u, orbit.points, orbit.period, idx, i))
    for (i, j), expected in wl.linking.items():
        if i in orbits and j in orbits:
            ring = 2 * np.pi * np.arange(512) / 512
            ops.append(checks.linking(orbits[i].points, orbits[j].points,
                                      checks.curve_eval(link.components[i], ring),
                                      checks.curve_eval(link.components[j], ring),
                                      expected, (i, j), rng))
        else:
            ops.append(checks.Check(f"linking[{i}, {j}]", False, "no orbit"))
    ops.append(checks.file_roundtrip(result.expansion, field))
    return ops


def run_round(wl, link, cfg, field_path, tracer, capture, rng):
    """One round: its metric values and its operations."""
    if tracer:
        tracer.reset()
    capture.orbits.clear()
    t0 = time.perf_counter()
    result = pipeline.synthesize(link, cfg)
    t_syn = time.perf_counter() - t0
    save_field(result.expansion, field_path)
    field = load_field(field_path)
    t0 = time.perf_counter()
    outcome = pipeline.verify(link, field, cfg)
    t_ver = time.perf_counter() - t0
    if tracer:
        values = {**tracer.layer_metrics(), "trace.synthesize_s": t_syn,
                  "trace.verify_s": t_ver}
    else:
        values = {"synthesize_s": t_syn, "verify_s": t_ver,
                  "strip_residual_max": max(outcome.report["strip_residuals"])}
    return values, check_round(wl, link, cfg, result, field, outcome, capture.orbits, rng)


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    link, cfg = wl.build()
    print("ready", flush=True)
    if args.setup_only:
        return {}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    capture = OrbitCapture()
    rng = np.random.default_rng(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    field_path = OUT / f"{wl.name}.field.json"

    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        values, ops = run_round(wl, link, cfg, field_path, tracer, capture, rng)
        attempted += len(ops)
        for op in ops:
            if not op.ok:
                failed += 1
                print(f"FAILED {wl.name} {op.name}: {op.detail}", file=sys.stderr)
        rounds.append(values)
        if len(rounds) == 1:
            # later rounds peak ~3 % higher on heap the first one left behind,
            # so the first round's peak keeps the metric free of the round count
            peak_rss = tracing.peak_rss_mib()
        took = time.perf_counter() - r0
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - start + took > args.seconds):
            break

    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    if tracer:
        tracer.uninstall()
        metrics["code.src_lines"] = tracing.src_lines(ROOT)
        tracer.write(OUT / f"{wl.name}.trace.npz",
                     {"workload": wl.name, "seed": args.seed, "rounds": rounds})
        units = tracing.PER_LAYER_UNITS
    else:
        metrics["peak_rss_mb"] = peak_rss
        units = END_TO_END_UNITS
    return {"rounds": len(rounds), "attempted": attempted, "failed": failed,
            "correct": failed == 0,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    out = run(parse_args(argv))
    if out:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
