"""Run configuration shared by the synthesis/verification pipeline and the CLI."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    """Numeric knobs for a synthesis/verification run.

    All defaults are the values used by the acceptance suite. The CLI sets
    lam, directions, ridge, rtol, atol, seed and eps_tilde; any field can be
    overridden by constructing a replaced copy. Numerics not listed here (the
    integrator method, Newton iteration caps, marching cutoffs) are fixed in
    the functions that own them.
    """

    lam: float = 1.0                 # Beltrami eigenvalue, must be > 0
    safety: float = 0.5              # tube radius = safety * min(reach, half gap)
    w_half_factor: float = 0.014     # strip half-width = w_half_factor * tube radius
    frame_samples: int = 1024        # arc-length samples for curve/frame models
    strip_s_per_2pi: int = 256       # strip grid: s nodes per 2*pi of arc length
    strip_t_nodes: int = 33          # strip grid: nodes across [-w_half, w_half]
    fit_stride_s: int = 1            # fit uses every stride-th strip node in s
    fit_stride_t: int = 1            # fit uses every stride-th strip node in t
    directions: int = 200            # quasi-uniform wave directions, one member each
    # Tikhonov weight on the expansion coefficients. A basis with both
    # polarizations per direction (N2 = -i N1) splits each coefficient evenly
    # across the twins, so its ridge 1e-10 is this basis's 5e-11: same fit
    ridge: float = 5e-11
    budget_order: int = 1            # derivative order s in the error budget count
    eps_tilde: float = 1e-3          # per-tube strip residual tolerance
    rtol: float = 1e-10              # integrator relative tolerance
    atol: float = 1e-12              # integrator absolute tolerance
    orbit_samples: int = 1024        # orbit samples at times kT/n, read from the closing shoot
    closure_tol: float = 1e-9        # |x(T) - x(0)| required of a refined orbit
    march_rho_frac: float = 0.2      # trusted range = march_rho_frac * strip half-width
    defect_tol: float = 0.1          # max pre-rounding defect accepted for linking numbers
    hausdorff_tol: float = 1e-2      # orbit-to-core Hausdorff distance gate
    closedness_tol: float = 1e-8     # max d(pullback gamma) residual on the strip
    curl_check_points: int = 100     # random points for the eigen-relation spot check
    curl_tol: float = 1e-6           # relative FD curl error gate
    div_tol: float = 1e-8            # FD divergence gate
    seed: int = 0                    # seed for direction jitter

    def __post_init__(self):
        # fail before any geometry runs: a NaN or zero integrator tolerance
        # makes the integrator's step loop spin instead of failing
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            zero_ok = f.name in ("ridge", "budget_order", "seed")
            if not (math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
                raise ValueError(f"config {f.name} must be finite and "
                                 f"{'>=' if zero_ok else '>'} 0, got {value!r}")

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(d: dict) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**d)
