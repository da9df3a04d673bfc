"""The transverse marching solver that builds local Beltrami fields from
strip Cauchy data, exercised against its two closed forms.

In flat geometry the march is a plane rotation: starting from a = (1, 0) the
profile at distance rho must be (cos lam rho, -sin lam rho). The script shows
the identity, the 4th-order convergence of the rho stepper, and then marches a
real tube chart and measures how far the result is from curl u = lam u.
Last it marches a curved chart, the tube around a 2:1 ellipse, from the
pullback of an exact Beltrami expansion and compares every level with that
pullback; the script exits 1 unless the error is below 1e-7.
"""

import sys

import numpy as np

from knotflows.charts import TubeChart, chart_columns
from knotflows.curves import resample_arclength
from knotflows.field import BeltramiExpansion, make_basis
from knotflows.framing import frame_transport
from knotflows.marcher import (ChartTubeMetric, FlatMetric, MarchGrid,
                               beltrami_residual, march)
from knotflows.presets import borromean, circle

grid = MarchGrid(np.linspace(-1.0, 1.0, 9), 16, 2.0 * np.pi)
flat = FlatMetric(grid)
a0 = np.zeros((2, 9, 16))
a0[0] = 1.0

print("flat-space rotation identity, lam = 1, rho = 0.5:")
for n in (6, 12, 24):
    res = march(flat, 1.0, 0.5, n, a0=a0)
    err = max(np.max(np.abs(res.a[-1, 0] - np.cos(0.5))),
              np.max(np.abs(res.a[-1, 1] + np.sin(0.5))))
    print(f"  {n:3d} steps: max error {err:.3e}")
print("  (errors fall 16x per halving: the stepper is 4th order)")

# now a genuine tube: the strip around the unit circle with its exact Cauchy
# data, marched a short distance off the strip
arc = resample_arclength(circle(1.0)[0], 512)
chart = TubeChart(frame_transport(arc), 0.5, 0.05)
tube_grid = MarchGrid(np.linspace(-chart.w_half, chart.w_half, 17), 64,
                      chart.length)
metric = ChartTubeMetric(chart, tube_grid)

res = march(metric, 1.0, 0.01, 16)
resid = beltrami_residual(res, metric)
print("circle tube, rho in [0, 0.01], 16 steps:")
print(f"  beltrami residual of the marched field: {resid:.3e}")
print("  the local solution exists and the marcher finds it to stencil accuracy")

# a curved chart: the pullback (u.X_z, u.X_theta) of an exact 6-member
# expansion solves the marched system at every rho level. The ellipse's metric
# varies along the core, so theta needs 256 nodes (filter cutoff 128)
chart = TubeChart(frame_transport(resample_arclength(borromean(2.0)[0], 512)),
                  0.4, 0.05)
w = chart.w_half
ell_grid = MarchGrid(np.linspace(-w, w, 17), 256, chart.length)
metric = ChartTubeMetric(chart, ell_grid)
rng = np.random.default_rng(3)
k, e = make_basis(6, rng)
u = BeltramiExpansion(1.0, k, e, rng.standard_normal(6), rng.standard_normal(6))
nj = chart.normal_jet(ell_grid.theta_nodes[None, :], ell_grid.z_nodes[:, None])


def pullback(rho):
    x_rho, x_z, x_th = chart_columns(nj, rho)
    v = u((nj["S"] + rho * x_rho).reshape(-1, 3)).reshape(x_z.shape)
    return np.stack([np.sum(v * x_z, axis=-1), np.sum(v * x_th, axis=-1)])


res = march(metric, 1.0, 0.2 * w, 16, a0=pullback(0.0))
err = max(np.max(np.abs(res.a[i] - pullback(rho))) for i, rho in enumerate(res.rhos))
print(f"2:1 ellipse tube (radius 0.4), rho in [0, {0.2 * w:g}], 16 steps, 256 theta nodes:")
print(f"  max error against the exact expansion's pullback: {err:.3e} (gate 1e-7)")
if not err < 1e-7:
    sys.exit(1)
