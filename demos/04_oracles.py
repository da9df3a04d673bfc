"""The two closed-form dynamical oracles behind the verification machinery.

1. Strip monodromy: inside the strip the model field is g d/ds - t d/dt, so
   the core cycle of a component of length L has transverse multiplier e^{-L}.
2. Tube-model Floquet: extending the strip dynamics to a 3D model field over
   the circle gives a saddle with multipliers {e^{-2pi}, e^{2pi}} and unit
   monodromy determinant. The general-purpose multiple-shooting orbit solver,
   whose closing shoot also gives the Floquet factors, must reproduce them.

Both numbers are known exactly, so they pin the integrators down before any
fitted field is trusted.
"""

import numpy as np

from knotflows.charts import TubeChart
from knotflows.curves import resample_arclength
from knotflows.dynamics import monodromy, refine_orbit
from knotflows.framing import frame_transport
from knotflows.paper import TubeModelField, strip_monodromy
from knotflows.presets import circle, figure_eight, trefoil

print("strip monodromy mu vs e^{-L}:")
for name, curve, radius, w_half in (
        ("circle(1)", circle(1.0)[0], 0.5, 0.1),
        ("trefoil", trefoil()[0], 0.1, 0.02),
        ("figure eight", figure_eight()[0], 0.05, 0.01)):
    chart = TubeChart(frame_transport(resample_arclength(curve, 1024)),
                      radius, w_half)
    mu, period = strip_monodromy(chart)
    print(f"  {name:13s} L = {period:9.5f}   "
          f"|mu - e^-L| = {abs(mu - np.exp(-period)):.2e}")

print("tube-model Floquet multipliers over circle(1):")
chart = TubeChart(frame_transport(resample_arclength(circle(1.0)[0], 96)),
                  0.5, 0.1)
field = TubeModelField(chart)
# the chart core is the model's orbit: Newton closes it without a step
orbit = refine_orbit(field, chart, rtol=1e-9, atol=1e-11)
flo = monodromy(field, orbit)
print(f"  period {orbit.period:.10f} (2pi = {2 * np.pi:.10f}), "
      f"{orbit.newton_iterations} Newton steps, closure {orbit.closure_residual:.1e}")
mu_u, mu_s = flo.multipliers
print(f"  unstable: {mu_u:.8f}   (e^2pi  = {np.exp(2 * np.pi):.8f})")
print(f"  stable:   {mu_s:.8f}   (e^-2pi = {np.exp(-2 * np.pi):.8f})")
print(f"  mu1 * mu2 - 1 = {mu_u * mu_s - 1.0:+.2e} "
      f"(Liouville: det M(T) = {flo.det:.10f})")
print(f"  classification: {flo.classification}, margin {flo.margin:.3f}")
