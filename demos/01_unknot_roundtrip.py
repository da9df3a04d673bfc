"""Synthesize a global Beltrami field whose flow has the unit circle as a
hyperbolic periodic stream line, then verify every claim it makes.

Runs in about 4 s on 2 CPUs. Artifacts land in demos/out/: the field file, the
verification report, and a traced polyline of the recovered orbit.
"""

from pathlib import Path

import numpy as np

from knotflows import fileio
from knotflows.config import RunConfig
from knotflows.curves import LinkSpec
from knotflows.dynamics import integrate
from knotflows.pipeline import synthesize, verify
from knotflows.presets import circle

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

link = LinkSpec(1.0, tuple(circle(1.0)))
config = RunConfig(lam=1.0)

print("synthesizing: unit circle, lambda = 1, "
      f"{config.directions} wave directions")
result = synthesize(link, config)
fit = result.fit
print(f"  basis members {fit.basis_members}, collocation rows {3 * fit.n_points}")
print(f"  strip residual {fit.tube_residuals[0]:.3e} "
      f"vs budget {fit.tube_budgets[0]:g} -> success = {fit.success}")
fileio.save_field(result.expansion, out / "unknot_field.json")

print("verifying...")
outcome = verify(link, result.expansion, config)
fileio.write_report(outcome.report, out / "unknot_report.json")
for crit in outcome.report["criteria"]:
    print(f"  [{'pass' if crit['passed'] else 'FAIL'}] {crit['name']}")

comp = outcome.report["components"][0]
print(f"orbit period {comp['period']:.6f} (core length {comp['core_length']:.6f})")
print(f"Floquet multipliers {comp['multipliers'][0]:.4f}, "
      f"{comp['multipliers'][1]:.6f}; det M = {comp['det_monodromy']:.12f}")
print(f"Hausdorff distance to the circle: {comp['hausdorff']:.3e}")

# trace one full period from the refined orbit's first sample; the endpoint gap is
# the closure quality a plotting tool will see
orbit = outcome.orbits[0]
traj = integrate(result.expansion, orbit.points[0],
                 orbit.period, rtol=1e-10, atol=1e-12, n_samples=2048)
gap = np.linalg.norm(traj.x[-1] - traj.x[0])
fileio.write_table(out / "unknot_orbit.csv", ["t", "x", "y", "z"],
                   [traj.t, traj.x[:, 0], traj.x[:, 1], traj.x[:, 2]])
print(f"traced one period from the orbit's first sample: closure gap {gap:.3e}")
print(f"overall: {'PASS' if outcome.passed else 'FAIL'}")
