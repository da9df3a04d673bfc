"""Shared fixtures and independent oracles.

The four end-to-end runs (unknot, Hopf, trefoil, Borromean) are session-scoped
because several test modules and most acceptance criteria read them. Each
fixture returns the link, the config, the synthesis result, the verification
outcome, and the wall-clock times of both stages.
"""

import time
import tracemalloc

import numpy as np
import pytest

from knotflows import presets
from knotflows.config import RunConfig
from knotflows.curves import LinkSpec
from knotflows.dynamics import PeriodicOrbit
from knotflows.field import direction_set, polarization_pair
from knotflows.pipeline import synthesize, verify

# verify's criterion names, in report order
CRITERIA = ["cauchy_closedness", "strip_residual_budget", "eigen_relation",
            "orbits_converged", "orbits_hyperbolic", "unit_determinant",
            "orbits_confined", "hausdorff_distance", "linking_matrix"]


def _run(link: LinkSpec, cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    result = synthesize(link, cfg)
    t_syn = time.perf_counter() - t0
    t0 = time.perf_counter()
    outcome = verify(link, result.expansion, cfg)
    t_ver = time.perf_counter() - t0
    return {"link": link, "config": cfg, "synthesis": result,
            "outcome": outcome, "report": outcome.report,
            "t_synthesize": t_syn, "t_verify": t_ver}


@pytest.fixture(scope="session")
def unknot_run():
    link = LinkSpec(1.0, tuple(presets.circle(1.0)))
    return _run(link, RunConfig(lam=1.0))


@pytest.fixture(scope="session")
def hopf_run():
    # radius-14 geometry at lam = 1 is the unit Hopf link at lam = 14; the
    # larger scale separates the tubes by many wavelengths, which the quiet
    # zones between sub-wavelength tubes would otherwise forbid
    link = LinkSpec(1.0, tuple(presets.hopf(radius=14.0)))
    cfg = RunConfig(lam=1.0, directions=400, w_half_factor=0.01,
                    strip_s_per_2pi=18)
    return _run(link, cfg)


@pytest.fixture(scope="session")
def trefoil_run():
    link = LinkSpec(1.0, tuple(presets.trefoil(scale=32.0)))
    cfg = RunConfig(lam=1.0, directions=600, w_half_factor=0.02,
                    strip_s_per_2pi=8)
    return _run(link, cfg)


@pytest.fixture(scope="session")
def borromean_run():
    link = LinkSpec(1.0, tuple(presets.borromean(major=32.0)))
    cfg = RunConfig(lam=1.0, directions=900, w_half_factor=0.005,
                    strip_s_per_2pi=8)
    return _run(link, cfg)


# independent oracles ---------------------------------------------------------

def quadrature_length(curve, limit: int = 200) -> float:
    """Adaptive-quadrature arc length, independent of the FFT-based model."""
    from scipy.integrate import quad
    val, err = quad(lambda t: float(curve.speed(np.array([t]))[0]),
                    0.0, 2.0 * np.pi, limit=limit, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-8
    return val


def crossing_count_linking(a: np.ndarray, b: np.ndarray,
                           rng: np.random.Generator | None = None) -> int:
    """Signed-crossing-count linking number on a generic planar projection.

    Sign convention matches the Gauss integral: at a crossing of strands with
    tangents t1 (first curve) and t2, epsilon = sign(((t1 x t2).d)((x1-x2).d))
    with d the viewing direction; lk = half the sum over inter-curve crossings.
    """
    rng = rng or np.random.default_rng(7)
    for _ in range(8):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        basis = np.linalg.qr(np.column_stack([d, np.eye(3)[:, :2]]))[0][:, 1:]
        pa, pb = a @ basis, b @ basis
        sa = np.diff(np.vstack([pa, pa[:1]]), axis=0)
        sb = np.diff(np.vstack([pb, pb[:1]]), axis=0)
        ta = np.diff(np.vstack([a, a[:1]]), axis=0)
        tb = np.diff(np.vstack([b, b[:1]]), axis=0)
        total = 0
        ok = True
        for i in range(len(pa)):
            # 2x2 solves for the projected intersection of segment pairs
            den = sa[i, 0] * (-sb[:, 1]) - sa[i, 1] * (-sb[:, 0])
            rhs = pb - pa[i]
            with np.errstate(divide="ignore", invalid="ignore"):
                u = (rhs[:, 0] * (-sb[:, 1]) - rhs[:, 1] * (-sb[:, 0])) / den
                v = (sa[i, 0] * rhs[:, 1] - sa[i, 1] * rhs[:, 0]) / den
            hit = np.flatnonzero((np.abs(den) > 1e-12) & (u > 0) & (u < 1)
                                 & (v > 0) & (v < 1))
            for j in hit:
                if min(u[j], 1 - u[j], v[j], 1 - v[j]) < 1e-9:
                    ok = False  # crossing too close to a vertex; reproject
                    break
                x1 = a[i] + u[j] * ta[i]
                x2 = b[j] + v[j] * tb[j]
                h = np.dot(x1 - x2, d)
                s = np.dot(np.cross(ta[i], tb[j]), d) * h
                total += 1 if s > 0 else -1
            if not ok:
                break
        if ok and total % 2 == 0:
            return total // 2
    raise RuntimeError("no generic projection found")


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak bytes tracemalloc saw during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def fd_jacobian(field, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian oracle."""
    jac = np.empty((3, 3))
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        jac[:, j] = (field(x + dx) - field(x - dx)) / (2.0 * h)
    return jac


def overflowing_orbit() -> PeriodicOrbit:
    """A hand-built orbit of period 768 on the unit circle whose 64 segment
    factors diag(e^12, e^-12, 1) multiply to e^768, past float64's range."""
    s = 2.0 * np.pi * np.arange(64) / 64
    nodes = np.column_stack([np.cos(s), np.sin(s), np.zeros(64)])
    factors = np.broadcast_to(np.diag([np.exp(12.0), np.exp(-12.0), 1.0]), (64, 3, 3))
    return PeriodicOrbit(points=nodes, period=768.0, closure_residual=0.0,
                         newton_iterations=0, nodes=nodes, transfers=factors)


def rotating_orbit() -> PeriodicOrbit:
    """A hand-built elliptic orbit on the unit circle: each of its 64 segment
    factors turns the x-y plane by 0.01 rad and fixes e_z, so M(T) turns it by
    0.64 rad and its multipliers are e^(+-0.64i) beside the eigenvalue 1."""
    s = 2.0 * np.pi * np.arange(64) / 64
    nodes = np.column_stack([np.cos(s), np.sin(s), np.zeros(64)])
    c, sn = np.cos(0.01), np.sin(0.01)
    factors = np.broadcast_to(np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]]),
                              (64, 3, 3))
    return PeriodicOrbit(points=nodes, period=2.0 * np.pi, closure_residual=0.0,
                         newton_iterations=0, nodes=nodes, transfers=factors)


def twin_basis(n: int, rng=None):
    """The two-polarization basis of earlier field files: each direction of
    direction_set(n, rng) twice, with e1 and e2 = k x e1 (N2 = -i N1)."""
    dirs = direction_set(n, rng)
    return np.repeat(dirs, 2, axis=0), np.vstack([polarization_pair(k) for k in dirs])
