"""Global Beltrami fields as finite plane-wave expansions.

Each member N(x) = (e + i k x e) exp(i lam k.x) with |k| = |e| = 1, k.e = 0
satisfies curl N = lam N exactly, so any real combination of real and
imaginary parts is an exact divergence-free Beltrami field on all of R^3.
Stored members meet those identities to rounding; eigen_bounds turns what
is left of them into bounds on curl u - lam u and div u over all of R^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# jet_near's offset kernel takes cos d and sin d by Taylor polynomials on
# |d| <= NEAR_PHASE, at a quarter of libm's cost per element
NEAR_PHASE = 0.5


def _taylor_terms(h: float) -> int:
    """Taylor terms for phase offsets bounded by h <= NEAR_PHASE: the first p
    with h^p / p! <= 2^-52, so every dropped term weighs at most the unit
    roundoff of the sum it is dropped from."""
    p, term = 0, 1.0
    while term > 2.0**-52:
        p += 1
        term *= h / p
    return p


# (-1)^(p // 2) / p!, the signed Taylor coefficients of cos (even p) and sin
# (odd p), for every term a phase offset within NEAR_PHASE needs
_TAYLOR = np.array([(-1.0) ** (p // 2) / math.factorial(p)
                    for p in range(_taylor_terms(NEAR_PHASE))])


def _cos_sin_near(d: np.ndarray):
    """cos d and sin d by Horner in d^2, for |d| <= NEAR_PHASE."""
    cos_taylor, sin_taylor = _TAYLOR[0::2], _TAYLOR[1::2]
    z = d * d
    c, s = cos_taylor[-1] * z, sin_taylor[-1] * z
    for a in cos_taylor[-2:0:-1]:
        c += a
        c *= z
    for a in sin_taylor[-2:0:-1]:
        s += a
        s *= z
    c += 1.0
    s *= d
    s += d
    return c, s


def direction_set(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """n quasi-uniform unit vectors (Fibonacci sphere), optionally jittered by
    one seeded random rotation of the whole set."""
    if n < 1:
        raise ValueError("need n >= 1 directions")
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * i
    dirs = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    if rng is not None:
        # QR of a random matrix gives a Haar-ish rotation; fix det = +1
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        dirs = dirs @ q.T
    return dirs


def polarization_pair(k: np.ndarray):
    """Two orthonormal vectors spanning the plane orthogonal to unit vector k,
    for (..., 3) rows k at once. Each row is normalized by its own dot
    product, as np.linalg.norm does a single vector, to the last bit."""
    k = np.asarray(k, dtype=float)
    axis = np.zeros_like(k)
    np.put_along_axis(axis, np.argmin(np.abs(k), axis=-1)[..., None], 1.0, axis=-1)
    e1 = np.cross(k, axis)
    e1 /= np.sqrt(e1[..., None, :] @ e1[..., :, None])[..., 0]
    return e1, np.cross(k, e1)


def make_basis(n_directions: int, rng: np.random.Generator | None = None):
    """(k, e) member arrays: one member per direction, n members, hence 2n real
    basis fields (alpha and beta per member). A second polarization would add
    nothing: with e2 = k x e1, N2 = -i N1 spans the same two real fields."""
    dirs = direction_set(n_directions, rng)
    return dirs, polarization_pair(dirs)[0]


def _check_members(k, e, tol=1e-12):
    if np.max(np.abs(np.linalg.norm(k, axis=1) - 1.0)) > tol:
        raise ValueError("wave vectors k must be unit")
    if np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0)) > tol:
        raise ValueError("polarizations e must be unit")
    if np.max(np.abs(np.sum(k * e, axis=1))) > tol:
        raise ValueError("polarizations must satisfy k . e = 0")


def eigen_bounds(u: BeltramiExpansion) -> tuple[float, float]:
    """Bounds on |curl u - lam u| and on |div u| that hold at every x.

    Member j is A_j e_j + B_j f_j with f_j = k_j x e_j and |A_j|, |B_j| at
    most c_j = hypot(alpha_j, beta_j). Its curl minus lam times itself is
    lam A_j (e_j (|k_j|^2 - 1) - k_j (k_j . e_j)) and its divergence
    lam B_j (k_j . e_j): zero for exact members, and otherwise summed here
    from the member defects that _check_members lets through.
    """
    c = abs(u.lam) * np.hypot(u.alpha, u.beta)
    ke = np.sum(u.k * u.e, axis=1)
    curl = u.e * (np.sum(u.k * u.k, axis=1) - 1.0)[:, None] - u.k * ke[:, None]
    return float(c @ np.linalg.norm(curl, axis=1)), float(c @ np.abs(ke))


@dataclass(frozen=True)
class BeltramiExpansion:
    """u(x) = sum_j alpha_j Re N_j(x) + beta_j Im N_j(x); curl u = lam u exactly."""

    lam: float
    k: np.ndarray       # (m, 3) unit wave directions
    e: np.ndarray       # (m, 3) unit polarizations, orthogonal to k
    alpha: np.ndarray   # (m,)
    beta: np.ndarray    # (m,)
    f: np.ndarray = dc_field(init=False, repr=False)
    # tables of jet() and __call__, built in __post_init__
    lk: np.ndarray = dc_field(init=False, repr=False, compare=False)
    cos_table: np.ndarray = dc_field(init=False, repr=False, compare=False)
    sin_table: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam == 0.0:
            raise ValueError("lambda must be finite and nonzero")
        k, e, alpha, beta = (np.asarray(v, dtype=float)
                             for v in (self.k, self.e, self.alpha, self.beta))
        m = k.shape[0] if k.ndim == 2 else -1
        shapes = (k.shape, e.shape, alpha.shape, beta.shape)
        if shapes != ((m, 3), (m, 3), (m,), (m,)):
            raise ValueError("k, e, alpha, beta need shapes (m, 3), (m, 3), (m,), (m,); "
                             f"got {shapes}")
        if not all(np.isfinite(v).all() for v in (k, e, alpha, beta)):
            raise ValueError("k, e, alpha and beta must be finite")
        _check_members(k, e)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        f = np.cross(k, e)
        object.__setattr__(self, "f", f)
        # u = A e + B f with A = c alpha + s beta, B = c beta - s alpha; since
        # dA = lam B k and dB = -lam A k, Du = lam (B e - A f) k^T. Both are
        # A @ w1 + B @ w2 with rows w1 = [e | -lam f k^T], w2 = [f | lam e k^T],
        # and folding alpha, beta into the rows leaves one cos and one sin term
        lam = self.lam
        w1 = np.hstack([e, -lam * (f[:, :, None] * k[:, None, :]).reshape(m, 9)])
        w2 = np.hstack([f, lam * (e[:, :, None] * k[:, None, :]).reshape(m, 9)])
        a, b = alpha[:, None], beta[:, None]
        object.__setattr__(self, "lk", np.ascontiguousarray((lam * k).T))
        object.__setattr__(self, "cos_table", a * w1 + b * w2)
        object.__setattr__(self, "sin_table", b * w1 - a * w2)

    def __eq__(self, other):
        """Equal by value: lam, then k, e, alpha and beta; derived tables ignored."""
        if not isinstance(other, BeltramiExpansion):
            return NotImplemented
        return self.lam == other.lam and all(
            np.array_equal(getattr(self, n), getattr(other, n))
            for n in ("k", "e", "alpha", "beta"))

    def __hash__(self):
        raise TypeError(f"unhashable type: '{type(self).__name__}'")

    @property
    def n_members(self) -> int:
        return self.k.shape[0]

    def __call__(self, x) -> np.ndarray:
        """Field values; x is (3,) or (n, 3). Reads the value columns of jet's
        tables, so the two share one formula."""
        phase = np.asarray(x, dtype=float) @ self.lk
        return np.cos(phase) @ self.cos_table[:, :3] + np.sin(phase) @ self.sin_table[:, :3]

    def jet(self, x):
        """Field values and Jacobians d u_i / d x_j from one cos/sin pass.

        x is (3,) or (n, 3); returns u of shape (3,) or (n, 3) and Du of
        shape (3, 3) or (n, 3, 3).
        """
        phase = np.asarray(x, dtype=float) @ self.lk
        o = np.cos(phase) @ self.cos_table + np.sin(phase) @ self.sin_table
        return o[..., :3], o[..., 3:].reshape(o.shape[:-1] + (3, 3))

    def jet_near(self, centers):
        """jet for (m, 3) points whose row i stays near a centre: cos and sin of
        lam k.centre are taken by libm, then of the offset phases
        d = lam k.(x - centre) by _cos_sin_near, and the angles added. When some
        |d| exceeds NEAR_PHASE (or is not finite), every row is re-centred at
        x and that call returns the exact jet there. The centres start at centers."""
        lk, cos_table, sin_table = self.lk, self.cos_table, self.sin_table
        x0 = np.array(centers, dtype=float)
        phase = x0 @ lk
        cos_c, sin_c = np.cos(phase), np.sin(phase)

        def jet(x):
            nonlocal x0, cos_c, sin_c
            d = (x - x0) @ lk
            if not np.max(np.abs(d)) <= NEAR_PHASE:
                x0 = np.array(x, dtype=float)
                phase = x0 @ lk
                cos_c, sin_c = np.cos(phase), np.sin(phase)
                o = cos_c @ cos_table + sin_c @ sin_table
            else:
                cos_d, sin_d = _cos_sin_near(d)
                o = ((cos_c * cos_d - sin_c * sin_d) @ cos_table
                     + (sin_c * cos_d + cos_c * sin_d) @ sin_table)
            return o[:, :3], o[:, 3:].reshape(-1, 3, 3)

        return jet

    def on_rulings(self, core, e1, t) -> np.ndarray:
        """Field values at core[i] + t[j] e1[i] for (n, 3) core and e1 and (nt,)
        t, shape (n, nt, 3), as a power series in t along each ruling.

        The phase there is A + t B with A = lam k.core and B = lam k.e1, so
        u = sum_p t^p / p! V_p, where V_p reads X_p = [B^p cos A | B^p sin A]
        against [[CT, ST], [ST, -CT]] (CT, ST the value columns of jet's
        tables): columns 0-2 for even p and 3-5 for odd p, with sign
        (-1)^(p // 2). So cos and sin are taken n x members times, not
        n x nt x members. The series stops at the first p with
        h^p / p! <= 2^-52, h = max|t| max|B| (_taylor_terms), where the
        dropped tail is below the rounding of the direct sum; when
        h > NEAR_PHASE (or is not finite) this is __call__ on the broadcast
        points.
        """
        core, e1, t = (np.asarray(v, dtype=float) for v in (core, e1, t))
        b = e1 @ self.lk
        h = np.max(np.abs(t)) * np.max(np.abs(b))
        if not h <= NEAR_PHASE:
            x = core[:, None, :] + t[None, :, None] * e1[:, None, :]
            return self(x.reshape(-1, 3)).reshape(x.shape)
        ct, st = self.cos_table[:, :3], self.sin_table[:, :3]
        tables = (np.vstack([ct, st]), np.vstack([st, -ct]))
        a = core @ self.lk
        x = np.hstack([np.cos(a), np.sin(a)])
        bb = np.hstack([b, b])
        terms = _taylor_terms(h)
        v = np.empty((core.shape[0], terms, 3))
        for p in range(terms):
            if p:
                x *= bb
            v[:, p] = x @ tables[p % 2]
        return (t[:, None] ** np.arange(terms) * _TAYLOR[:terms]) @ v
