"""Realize the Hopf link as two hyperbolic periodic stream lines of one
global Beltrami field and check the linking matrix of the recovered orbits.

The two circles are scaled to radius 14 at lambda = 1. Scale is equivalent to
eigenvalue here (u_sigma(x) = u(x / sigma) is Beltrami for lambda / sigma), so
this is the unit Hopf link seen by a wavelength-14 field: the tubes sit many
wavelengths apart, which keeps the plane-wave fit well conditioned.

Runs in about 10 s on two CPUs.
"""

from pathlib import Path

from knotflows import fileio
from knotflows.config import RunConfig
from knotflows.curves import LinkSpec
from knotflows.pipeline import synthesize, verify
from knotflows.presets import hopf

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

link = LinkSpec(1.0, tuple(hopf(radius=14.0)))
config = RunConfig(lam=1.0, directions=400, w_half_factor=0.01,
                   strip_s_per_2pi=18)

print("synthesizing: Hopf link at radius 14, lambda = 1")
result = synthesize(link, config)
for i, (res, bud) in enumerate(zip(result.fit.tube_residuals,
                                   result.fit.tube_budgets)):
    print(f"  tube {i}: residual {res:.3e} vs budget {bud:g}")

print("verifying...")
outcome = verify(link, result.expansion, config)
fileio.write_report(outcome.report, out / "hopf_report.json")

for comp in outcome.report["components"]:
    print(f"  orbit {comp['index']}: period {comp['period']:.4f}, "
          f"winding {comp['winding']}, confined {comp['confined']}, "
          f"multipliers ({comp['multipliers'][0]:.3e}, "
          f"{comp['multipliers'][1]:.3e})")
pair = outcome.report["pairs"][0]
print(f"linking number of the two orbits: {pair['linking']} "
      f"(defect {pair['defect']:.2e}, target {pair['target']})")
print(f"overall: {'PASS' if outcome.passed else 'FAIL'}")
