"""The exact algebra that makes the construction globally consistent.

The error budget assigns tube m the tolerance eps_m = min(eps~)/(7 sigma) 3^{-m}
with sigma the number of derivative multi-indices tracked; the two strict
inequalities (each stage under the global bound, each tail under its stage)
make the stage corrections summable. The beltramize projector lifts three
Helmholtz scalars to a Beltrami field and is the identity on Beltrami input
and zero on anti-Beltrami input, exactly, coefficient by coefficient.
"""

import numpy as np

from knotflows.field import BeltramiExpansion, direction_set, polarization_pair
from knotflows.paper import (HelmholtzScalarExpansion, beltramize,
                             make_error_budget, to_scalar_components)

for s in (0, 1, 2):
    budget = make_error_budget([1e-3, 2e-3], s=s)
    print(f"order s = {s}: sigma = {budget.sigma:2d} multi-indices, "
          f"eps_1 = {budget.epsilon(1):.3e}, tail_1 = {budget.tail(1):.3e}, "
          f"inequalities hold for 50 stages: {budget.verify(50)}")

rng = np.random.default_rng(0)
dirs = direction_set(8, rng)
e = np.array([polarization_pair(k)[0] for k in dirs])
u = BeltramiExpansion(2.0, dirs, e, rng.standard_normal(8),
                      rng.standard_normal(8))
v = beltramize(*to_scalar_components(u))
print(f"beltramize on a Beltrami field: max coefficient change "
      f"{max(np.max(np.abs(v.alpha - u.alpha)), np.max(np.abs(v.beta - u.beta))):.2e}")

anti = np.array([polarization_pair(k)[0] - 1j * np.cross(k, polarization_pair(k)[0])
                 for k in dirs])
amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
comps = tuple(HelmholtzScalarExpansion(2.0, dirs, amps * anti[:, i])
              for i in range(3))
w = beltramize(*comps)
print(f"beltramize on an anti-Beltrami field: max output coefficient "
      f"{max(np.max(np.abs(w.alpha)), np.max(np.abs(w.beta))):.2e}")
