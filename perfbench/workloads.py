"""Benchmark workloads: a link built from a preset, and its RunConfig.

hopf is the Hopf run of tests/conftest.py (same link, basis and strip
spacing) on a coarser strip and orbit sampling, so that two rounds fit in one
benchmark run. The trefoil and Borromean fixtures take 440 s and 200 s per
round, beyond one benchmark run; ellipse stands in for their chart-projection
cost. The program's only seed is RunConfig.seed (the direction jitter), left
at its default; the benchmark's --seed drives its own check points alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                 # knotflows.presets function name
    params: dict                # preset arguments
    config: dict                # RunConfig overrides (lam is always 1.0)
    linking: dict = field(default_factory=dict)   # (i, j) -> expected |lk|
    components: tuple = ()      # preset components to keep; () keeps all

    def build(self):
        """The link and its run configuration."""
        from knotflows import presets
        from knotflows.config import RunConfig
        from knotflows.curves import LinkSpec
        curves = getattr(presets, self.preset)(**self.params)
        curves = [curves[i] for i in self.components] or curves
        return LinkSpec(1.0, tuple(curves)), RunConfig(lam=1.0, **self.config)


WORKLOADS = {
    # two linked circles of radius 14 at lam = 1: T = 88 orbits, multipliers
    # e^(+-88); verify is mostly shooting Newton and monodromy, the fit is
    # 13.6k rows x 1600 columns, chart projection needs ~6 strip jets per point
    "hopf": Workload("hopf", "hopf", {"radius": 14.0},
                     {"directions": 400, "w_half_factor": 0.01,
                      "strip_s_per_2pi": 18, "strip_t_nodes": 9,
                      "orbit_samples": 256},
                     linking={(0, 1): 1}),
    # one Borromean ring alone (2:1 ellipse, major 8): the far side of the
    # ellipse is a second local minimum of the distance to the core, so each
    # chart projection runs ~39 strip jets and projection is most of verify
    "ellipse": Workload("ellipse", "borromean", {"major": 8.0},
                        {"directions": 200, "strip_s_per_2pi": 32,
                         "orbit_samples": 512},
                        components=(0,)),
}
