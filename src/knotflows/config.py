"""Run configuration shared by the synthesis/verification pipeline and the CLI."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    """Numeric knobs for a synthesis/verification run.

    All defaults are the values used by the acceptance suite. The CLI sets
    lam and eps_tilde for both commands, directions, ridge and seed for
    synthesize, rtol and atol for verify; any field can be overridden by
    constructing a replaced copy. Numerics not listed here (the tube radius
    safety factor, gate tolerances, Newton closure, linking defect, marching
    range) are fixed beside the checks that apply them.
    """

    lam: float = 1.0                 # Beltrami eigenvalue, must be > 0
    w_half_factor: float = 0.014     # strip half-width = w_half_factor * tube radius
    frame_samples: int = 1024        # arc-length samples for curve/frame models
    strip_s_per_2pi: int = 256       # strip grid: s nodes per 2*pi of arc length
    strip_t_nodes: int = 33          # strip grid: nodes across [-w_half, w_half]
    directions: int = 200            # quasi-uniform wave directions, one member each
    # Tikhonov weight on the expansion coefficients. A basis with both
    # polarizations per direction (N2 = -i N1) splits each coefficient evenly
    # across the twins, so its ridge 1e-10 is this basis's 5e-11: same fit
    ridge: float = 5e-11
    eps_tilde: float = 1e-3          # per-tube strip residual tolerance
    rtol: float = 1e-10              # integrator relative tolerance
    atol: float = 1e-12              # integrator absolute tolerance
    orbit_samples: int = 1024        # orbit samples at times kT/n, read from the closing shoot
    hausdorff_tol: float = 1e-2      # orbit-to-core Hausdorff distance gate
    seed: int = 0                    # seed for direction jitter

    def __post_init__(self):
        # fail before any geometry runs: a NaN or zero integrator tolerance
        # makes the integrator's step loop spin instead of failing, and a
        # fractional count would be rounded somewhere downstream
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # bool is an Integral, but True is no count or tolerance
            if isinstance(value, bool):
                raise ValueError(f"config {f.name} must be a number, got {value!r}")
            if f.type == "int" and not isinstance(value, numbers.Integral):
                raise ValueError(f"config {f.name} must be an int, got {value!r}")
            # the strip grid keeps a node inside its edges; an orbit polyline needs 3
            if f.name in ("strip_t_nodes", "orbit_samples") and value < 3:
                raise ValueError(f"config {f.name} must be >= 3, got {value!r}")
            zero_ok = f.name in ("ridge", "seed")
            if not (math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
                raise ValueError(f"config {f.name} must be finite and "
                                 f"{'>=' if zero_ok else '>'} 0, got {value!r}")

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
