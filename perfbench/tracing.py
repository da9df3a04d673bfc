"""Span tracing of knotflows from outside the package, and the per-layer metrics.

Tracer.install wraps every public function of each knotflows module and every
public method (plus __call__) of the classes they define, and rebinds each
module-level name that refers to a wrapped function, so calls made through
`from .x import f` imports are seen too. Two calls into scipy are wrapped
where knotflows makes them: `dynamics.solve_ivp` and the least-squares solve
of the fit (`scipy.linalg.lstsq`, recorded as `fitting.lstsq`).

A span is (name, start, end, parent); spans stay in memory and are written
when the run ends. Inclusive times and call counts are kept as the calls
return, so nested calls of one name are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import time
from pathlib import Path

import numpy as np

MODULES = ("curves", "framing", "charts", "strip", "marcher", "field", "fitting",
           "dynamics", "topology", "pipeline", "fileio", "presets", "config")

# per-layer metric -> span whose inclusive time it reports
TIMERS = {
    "curves.arclength_s": "curves.resample_arclength",
    "curves.reach_s": "curves.ArcLengthCurve.reach",
    "framing.transport_s": "framing.frame_transport",
    "strip.cauchy_s": "strip.build_cauchy_data",
    "pipeline.geometry_s": "pipeline.build_geometry",
    "charts.to_tube_s": "charts.TubeChart.to_tube",
    "fitting.fit_s": "fitting.fit_global",
    "fitting.design_s": "fitting.design_matrix",
    "fitting.solve_s": "fitting.lstsq",
    "field.eval_s": "field.BeltramiExpansion.__call__",
    "field.jacobian_s": "field.BeltramiExpansion.jacobian",
    "dynamics.refine_s": "dynamics.refine_orbit",
    "dynamics.monodromy_s": "dynamics.monodromy",
    "topology.confinement_s": "topology.tube_confinement",
    "topology.linking_s": "topology.linking_number",
    "topology.hausdorff_s": "topology.hausdorff_distance",
    "marcher.cross_validate_s": "marcher.cross_validate",
    "pipeline.eigen_check_s": "pipeline.fd_curl_divergence",
}
# per-layer metric -> span whose call count it reports
CALLS = {
    "charts.to_tube_calls": "charts.TubeChart.to_tube",
    "charts.strip_jet_calls": "charts.TubeChart.strip_jet",
    "field.eval_calls": "field.BeltramiExpansion.__call__",
    "field.jacobian_calls": "field.BeltramiExpansion.jacobian",
    "dynamics.ivp_calls": "dynamics.solve_ivp",
}
# counters filled by the hooks below (and two derived from them)
COUNTERS = ("strip.series_points", "fitting.design_rows", "fitting.design_cols",
            "fitting.rss_growth_mb", "field.eval_points",
            "dynamics.newton_iterations", "dynamics.rhs_evals")

PER_LAYER_UNITS = {
    **{m: "s" for m in TIMERS}, **{m: "count" for m in CALLS},
    "strip.series_points": "count", "fitting.design_rows": "count",
    "fitting.design_cols": "count", "fitting.rss_growth_mb": "MiB",
    "field.eval_points": "count", "dynamics.newton_iterations": "count",
    "dynamics.rhs_evals": "count", "charts.jets_per_projection": "count",
    "fitting.design_mb": "MiB", "trace.synthesize_s": "s", "trace.verify_s": "s",
    "trace.spans": "count", "code.src_lines": "lines",
}


def current_rss_mib() -> float:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return peak_rss_mib()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _series_points(tr, args, kwargs, result, token):
    tr.counters["strip.series_points"] += np.size(args[1] if len(args) > 1 else kwargs["s"])


def _design_shape(tr, args, kwargs, result, token):
    tr.counters["fitting.design_rows"] += result.shape[0]
    tr.counters["fitting.design_cols"] = result.shape[1]


def _eval_points(tr, args, kwargs, result, token):
    tr.counters["field.eval_points"] += np.atleast_2d(result).shape[0]


def _newton(tr, args, kwargs, result, token):
    tr.counters["dynamics.newton_iterations"] += result.newton_iterations


def _nfev(tr, args, kwargs, result, token):
    tr.counters["dynamics.rhs_evals"] += result.nfev


def _rss_growth(tr, args, kwargs, result, token):
    # peak so far minus the resident set on entry: the fit's own growth while
    # the fit holds the process peak, which it does in every workload
    growth = peak_rss_mib() - token
    tr.counters["fitting.rss_growth_mb"] = max(tr.counters["fitting.rss_growth_mb"], growth)


# span name -> (pre hook returning a token, post hook)
HOOKS = {
    "curves.SpectralSeries.__call__": (None, _series_points),
    "fitting.design_matrix": (None, _design_shape),
    "field.BeltramiExpansion.__call__": (None, _eval_points),
    "dynamics.refine_orbit": (None, _newton),
    "dynamics.solve_ivp": (None, _nfev),
    "fitting.fit_global": (lambda args, kwargs: current_rss_mib(), _rss_growth),
}


class Tracer:
    """Spans and counters of the wrapped knotflows calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.reset()

    def reset(self):
        """Start a new measurement window; recorded spans are kept."""
        self.inclusive = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.depth = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.jets_in_projection = 0
        self.first_span = len(self.span_name)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.inclusive.append(0.0)
            self.calls.append(0)
            self.depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        pre, post = HOOKS.get(name, (None, None))
        jet = name == "charts.TubeChart.strip_jet"
        to_tube = self._id("charts.TubeChart.to_tube")
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr._stack
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            tr.depth[nid] += 1
            if jet and tr.depth[to_tube]:
                tr.jets_in_projection += 1
            token = pre(args, kwargs) if pre else None
            t0 = time.perf_counter()
            tr.span_start.append(t0)
            tr.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tr.span_end[idx] = t1
                stack.pop()
                tr.depth[nid] -= 1
                tr.calls[nid] += 1
                if not tr.depth[nid]:
                    tr.inclusive[nid] += t1 - t0
            if post:
                post(tr, args, kwargs, result, token)
            return result

        return traced

    def install(self):
        """Wrap the package; uninstall() puts every original back."""
        import scipy.linalg
        mods = {m: importlib.import_module(f"knotflows.{m}") for m in MODULES}
        replaced = {}   # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        for mod in list(mods.values()) + [importlib.import_module("knotflows")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
        dyn = mods["dynamics"]
        self._set(dyn, "solve_ivp", self.wrap("dynamics.solve_ivp", dyn.solve_ivp))
        self._set(scipy.linalg, "lstsq", self.wrap("fitting.lstsq", scipy.linalg.lstsq))

    def _wrap_class(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(name, obj.__func__)))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # metrics ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values of the window since the last reset()."""
        def incl(name):
            return self.inclusive[self._ids[name]] if name in self._ids else 0.0

        def calls(name):
            return self.calls[self._ids[name]] if name in self._ids else 0

        out = {m: incl(s) for m, s in TIMERS.items()}
        out.update({m: calls(s) for m, s in CALLS.items()})
        out.update(self.counters)
        projections = out["charts.to_tube_calls"]
        out["charts.jets_per_projection"] = (self.jets_in_projection / projections
                                             if projections else 0.0)
        out["fitting.design_mb"] = (out["fitting.design_rows"]
                                    * out["fitting.design_cols"] * 8 / 2**20)
        out["trace.spans"] = len(self.span_name) - self.first_span
        return out

    def write(self, path: Path, meta: dict):
        """Spans as compressed arrays plus the span-name table and run metadata."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            start=np.asarray(self.span_start), end=np.asarray(self.span_end),
            names=np.asarray(self.names), meta=np.asarray(json.dumps(meta)))


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "knotflows").rglob("*.py")))
