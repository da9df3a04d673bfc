"""Independent correctness checks of one synthesize -> save -> load -> verify round.

Every check recomputes its reference apart from the program: its own
plane-wave evaluation of the field coefficients, its own finite differences,
its own trigonometric evaluation and quadrature of the exact preset curves,
its own flow integration and its own crossing count. None compares against a
stored copy of an earlier output. Each check returns a Check; a check that
does not hold is one failed operation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

# 8th-order central first-derivative stencil on offsets 1..4 (antisymmetric)
_STENCIL = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


class PlaneWaveField:
    """u(x) = sum_j alpha_j Re N_j + beta_j Im N_j, N_j = (e_j + i k_j x e_j) e^(i lam k_j.x)."""

    def __init__(self, lam, k, e, alpha, beta):
        self.lam = float(lam)
        self.k = np.asarray(k, dtype=float)
        self.e = np.asarray(e, dtype=float)
        self.f = np.cross(self.k, self.e)
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)

    @classmethod
    def of(cls, expansion):
        return cls(expansion.lam, expansion.k, expansion.e, expansion.alpha,
                   expansion.beta)

    def __call__(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        phase = self.lam * pts @ self.k.T
        c, s = np.cos(phase), np.sin(phase)
        u = (c * self.alpha + s * self.beta) @ self.e \
            + (c * self.beta - s * self.alpha) @ self.f
        return u if np.ndim(x) == 2 else u[0]


# exact curves -----------------------------------------------------------------

def curve_eval(curve, t, deriv: int = 0) -> np.ndarray:
    """d^deriv/dt^deriv of sum_k A_k cos(kt) + B_k sin(kt), from the coefficients."""
    t = np.asarray(t, dtype=float)
    k = np.arange(curve.cos_coeffs.shape[0], dtype=float)
    ang = np.multiply.outer(t, k) + 0.5 * np.pi * deriv
    return (k**deriv * np.cos(ang)) @ curve.cos_coeffs \
        + (k**deriv * np.sin(ang)) @ curve.sin_coeffs


def curve_length(curve, n: int = 8192) -> float:
    """Periodic trapezoid rule for the integral of |c'(t)|: spectrally accurate."""
    t = 2.0 * np.pi * np.arange(n) / n
    return float(2.0 * np.pi * np.mean(np.linalg.norm(curve_eval(curve, t, 1), axis=1)))


def dense_core(curve, n: int = 1 << 15) -> np.ndarray:
    return curve_eval(curve, 2.0 * np.pi * np.arange(n) / n)


def distance_to_polyline(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed polyline, through the two
    segments at the nearest vertex (exact once the polyline is dense)."""
    j = cKDTree(poly).query(points)[1]
    n = poly.shape[0]
    best = np.full(points.shape[0], np.inf)
    for a_idx, b_idx in ((j - 1) % n, j), (j, (j + 1) % n):
        a, b = poly[a_idx], poly[b_idx]
        ab = b - a
        s = np.clip(np.sum((points - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(points - a - s[:, None] * ab, axis=1))
    return best


# checks -------------------------------------------------------------------------

def eigen_relation(u: PlaneWaveField, points: np.ndarray, h: float = 2e-2,
                   curl_tol: float = 1e-6, div_tol: float = 1e-8) -> Check:
    """|curl u - lam u| <= curl_tol |lam u| and |div u| <= div_tol by central differences."""
    jac = np.zeros((points.shape[0], 3, 3))
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        for m, w in enumerate(_STENCIL, start=1):
            jac[:, :, j] += w * (u(points + m * dx) - u(points - m * dx))
    jac /= h
    curl = np.stack([jac[:, 2, 1] - jac[:, 1, 2], jac[:, 0, 2] - jac[:, 2, 0],
                     jac[:, 1, 0] - jac[:, 0, 1]], axis=1)
    lam_u = u.lam * u(points)
    curl_rel = float(np.max(np.linalg.norm(curl - lam_u, axis=1)
                            / np.linalg.norm(lam_u, axis=1)))
    div = float(np.max(np.abs(np.trace(jac, axis1=1, axis2=2))))
    return Check("eigen_relation", curl_rel <= curl_tol and div <= div_tol,
                 f"curl rel {curl_rel:.3e} (<= {curl_tol:g}), div {div:.3e} (<= {div_tol:g})")


def core_tangent(u: PlaneWaveField, curve, t: np.ndarray, eps: float, i: int) -> Check:
    """u on the exact core equals the core's unit tangent within the tube's eps~."""
    v = curve_eval(curve, t, 1)
    tangent = v / np.linalg.norm(v, axis=1, keepdims=True)
    err = float(np.max(np.linalg.norm(u(curve_eval(curve, t)) - tangent, axis=1)))
    return Check(f"core_tangent[{i}]", err <= eps, f"max |u - T| {err:.3e} (<= {eps:g})")


def period(t_orbit: float, length: float, i: int, rel: float = 1e-3) -> Check:
    err = abs(t_orbit - length) / length
    return Check(f"period[{i}]", err <= rel,
                 f"T {t_orbit:.9g} vs length {length:.9g}: rel {err:.3e} (<= {rel:g})")


def floquet(mu_u, mu_s, t_orbit: float, i: int) -> Check:
    """Saddle, Liouville (det = 1 since div u = 0) and the strip rate ln|mu_s| = -T."""
    au, as_ = abs(mu_u), abs(mu_s)
    saddle = as_ < 1.0 < au
    liouville = abs(mu_u * mu_s - 1.0)
    rate = abs(np.log(as_) + t_orbit) / t_orbit if as_ > 0 else np.inf
    ok = saddle and liouville < 1e-4 and rate <= 0.02
    return Check(f"floquet[{i}]", bool(ok),
                 f"|mu_s| {as_:.3e} < 1 < |mu_u| {au:.3e}: {saddle}; "
                 f"|mu_u mu_s - 1| {liouville:.2e} (< 1e-4); "
                 f"ln|mu_s| vs -T rel {rate:.2e} (<= 0.02)")


def orbit_near_core(points: np.ndarray, core: np.ndarray, tol: float, i: int) -> Check:
    d = float(np.max(distance_to_polyline(points, core)))
    return Check(f"orbit_near_core[{i}]", d < tol, f"max distance {d:.3e} (< {tol:g})")


def orbit_flow(u: PlaneWaveField, points: np.ndarray, t_orbit: float,
               idx: np.ndarray, i: int, tol: float = 1e-6) -> Check:
    """Samples are spaced T/n in time: flowing sample j for T/n lands on sample j+1."""
    n = points.shape[0]
    dt = t_orbit / n
    worst = 0.0
    for j in idx:
        sol = solve_ivp(lambda _t, y: u(y), (0.0, dt), points[j], method="DOP853",
                        rtol=1e-12, atol=1e-12)
        worst = max(worst, float(np.linalg.norm(sol.y[:, -1] - points[(j + 1) % n])))
    return Check(f"orbit_flow[{i}]", worst <= tol,
                 f"{len(idx)} samples flowed T/n: max miss {worst:.3e} (<= {tol:g})")


def crossing_linking(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> int:
    """Linking number of two closed polylines as half the signed crossing count
    on a random generic projection (redrawn when a crossing is near a vertex)."""
    ta = np.roll(a, -1, axis=0) - a
    tb = np.roll(b, -1, axis=0) - b
    for _ in range(16):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        basis = np.linalg.qr(np.column_stack([d, np.eye(3)[:, :2]]))[0][:, 1:]
        pa, pb, sa, sb = a @ basis, b @ basis, ta @ basis, tb @ basis
        r = pb[None, :, :] - pa[:, None, :]

        def cross2(x, y):
            return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]

        den = cross2(sa[:, None, :], sb[None, :, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            s = cross2(r, sb[None, :, :]) / den
            t = cross2(r, sa[:, None, :]) / den
        hit = (s > 0) & (s < 1) & (t > 0) & (t < 1)
        ii, jj = np.nonzero(hit)
        s, t = s[ii, jj], t[ii, jj]
        if np.min(np.minimum.reduce([s, 1 - s, t, 1 - t]), initial=1.0) < 1e-9:
            continue
        height = (a[ii] + s[:, None] * ta[ii] - b[jj] - t[:, None] * tb[jj]) @ d
        sign = np.cross(ta[ii], tb[jj]) @ d * height
        total = int(np.sum(np.sign(sign)))
        if total % 2 == 0:
            return total // 2
    raise RuntimeError("no generic projection found")


def linking(orbit_a, orbit_b, core_a, core_b, expected: int, pair,
            rng: np.random.Generator) -> Check:
    """Orbit crossing count equals the exact cores' count, whose modulus is expected."""
    got = crossing_linking(orbit_a, orbit_b, rng)
    want = crossing_linking(core_a, core_b, rng)
    ok = got == want and abs(want) == expected
    return Check(f"linking{list(pair)}", ok,
                 f"orbits {got}, exact cores {want}, expected |lk| = {expected}")


def file_roundtrip(written, loaded) -> Check:
    """The field read back from disk is bitwise the field written."""
    same = written.lam == loaded.lam and all(
        getattr(written, a).dtype == getattr(loaded, a).dtype
        and getattr(written, a).shape == getattr(loaded, a).shape
        and getattr(written, a).tobytes() == getattr(loaded, a).tobytes()
        for a in ("k", "e", "alpha", "beta"))
    return Check("file_roundtrip", same,
                 f"{written.n_members} members, bitwise equal: {same}")
