"""Closed analytic space curves: trigonometric coefficients, arc length, spectral models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import circulant
from scipy.spatial.distance import cdist


# SpectralSeries drops the modes whose value tail is below this share of
# max(1, max |column samples|)
SERIES_TAIL = 1e-14


class EmbeddingError(ValueError):
    """Raised when a curve fails an embedding check (degenerate speed or near self-contact)."""


@dataclass(frozen=True)
class FourierCurve:
    """Closed curve c(t) = sum_k A[k] cos(k t) + B[k] sin(k t), t in [0, 2pi).

    cos_coeffs: (K+1, 3), row k holds the cos(k t) coefficients; row 0 is the constant term.
    sin_coeffs: (K+1, 3), row k holds the sin(k t) coefficients; row 0 must be zero.
    """

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.cos_coeffs, dtype=float))
        b = np.atleast_2d(np.asarray(self.sin_coeffs, dtype=float))
        if a.shape[1] != 3 or b.shape[1] != 3:
            raise ValueError("coefficient arrays must have shape (K+1, 3)")
        k = max(a.shape[0], b.shape[0])
        a = np.vstack([a, np.zeros((k - a.shape[0], 3))])
        b = np.vstack([b, np.zeros((k - b.shape[0], 3))])
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("Fourier coefficients must be finite")
        if np.any(b[0] != 0.0):
            raise ValueError("sin_coeffs[0] (the sin(0*t) row) must be zero")
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    @property
    def degree(self) -> int:
        return self.cos_coeffs.shape[0] - 1

    def _trig(self, t, deriv: int):
        t = np.asarray(t, dtype=float)
        k = np.arange(self.degree + 1, dtype=float)
        ang = np.multiply.outer(t, k)
        c, s = np.cos(ang), np.sin(ang)
        kp = k**deriv
        # d/dt cycles (cos, sin) -> (-sin, cos) -> (-cos, -sin) -> (sin, -cos)
        if deriv % 4 == 0:
            cc, ss = c * kp, s * kp
        elif deriv % 4 == 1:
            cc, ss = -s * kp, c * kp
        elif deriv % 4 == 2:
            cc, ss = -c * kp, -s * kp
        else:
            cc, ss = s * kp, -c * kp
        return cc @ self.cos_coeffs + ss @ self.sin_coeffs

    def point(self, t) -> np.ndarray:
        return self._trig(t, 0)

    def velocity(self, t) -> np.ndarray:
        return self._trig(t, 1)

    def acceleration(self, t) -> np.ndarray:
        return self._trig(t, 2)

    def speed(self, t) -> np.ndarray:
        return np.linalg.norm(self.velocity(t), axis=-1)

    def scale(self) -> float:
        """Coefficient-based size estimate of the curve."""
        return float(np.sum(np.abs(self.cos_coeffs)) + np.sum(np.abs(self.sin_coeffs)))

    def max_curvature(self) -> float:
        t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        v, a = self.velocity(t), self.acceleration(t)
        num = np.linalg.norm(np.cross(v, a), axis=-1)
        den = np.linalg.norm(v, axis=-1) ** 3
        return float(np.max(num / den))


class SpectralSeries:
    """Truncated trigonometric series of periodic samples, with exact derivatives.

    Built from (n, d) samples, uniform over one period. Modes 0..K of the
    samples' FFT are kept, K the least index at which, in every column, the
    dropped value tail sum_{k>K} w_k |c_k| is at most SERIES_TAIL * max(1,
    max |column samples|) (w_k = 2/n, 1/n for the mean and Nyquist modes).
    That tail bounds the change of the value at every s, not only at the
    samples. A call at s returns shape s.shape + (3, d): the series and its
    first and second derivatives, from one complex phase matrix times one
    (K + 1, 3d) coefficient table with columns [value | d/ds | d2/ds2].
    """

    def __init__(self, samples: np.ndarray, period: float):
        samples = np.asarray(samples, dtype=float).reshape(len(samples), -1)
        n, self.dim = samples.shape
        coeffs = np.fft.rfft(samples, axis=0)  # (n//2+1, d)
        w = np.full(coeffs.shape[0], 2.0 / n)
        w[0] = 1.0 / n
        wd = w.copy()
        if n % 2 == 0:
            # the Nyquist mode counts once, and is dropped when differentiating
            w[-1], wd[-1] = 1.0 / n, 0.0
        # tail[K]: each column's value tail beyond mode K; the last row is zero
        tail = np.cumsum((w[:, None] * np.abs(coeffs))[:0:-1], axis=0)[::-1]
        tail = np.vstack([tail, np.zeros((1, self.dim))])
        bound = SERIES_TAIL * np.maximum(1.0, np.max(np.abs(samples), axis=0))
        keep = int(np.argmax(np.all(tail <= bound, axis=1))) + 1
        coeffs, w, wd = coeffs[:keep], w[:keep], wd[:keep]
        self._ik = 1j * (2.0 * np.pi / float(period)) * np.arange(keep)
        self.table = np.hstack([coeffs * w[:, None],
                                coeffs * (wd * self._ik)[:, None],
                                coeffs * (wd * self._ik**2)[:, None]])

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        phase = np.exp(np.multiply.outer(s, self._ik))
        return np.real(phase @ self.table).reshape(s.shape + (3, self.dim))


class ArcLengthCurve:
    """Arc-length model of a closed FourierCurve.

    Provides the total length, the inverse parameter map t(s), uniform
    arc-length samples, and the self-distance and reach from one scan of the
    sampled chords.
    """

    def __init__(self, curve: FourierCurve, n: int = 1024):
        self.curve = curve
        self.n = int(n)
        # speed is an analytic periodic function; its FFT antiderivative gives
        # the arc-length function to machine precision
        m = max(4096, 8 * (curve.degree + 1))
        tg = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        sp = curve.speed(tg)
        if np.min(sp) < 1e-8 * max(curve.scale(), 1e-30):
            bad = tg[int(np.argmin(sp))]
            raise EmbeddingError(f"degenerate speed |c'(t)| ~ 0 at t = {bad:.6f}")
        coeffs = np.fft.rfft(sp)
        self.length = float(2.0 * np.pi * coeffs[0].real / m)
        mm = np.arange(1, coeffs.shape[0], dtype=float)
        anti = coeffs[1:] / (1j * mm)  # periodic part of the antiderivative
        # keep modes 1..K, K the least whose dropped tail bound
        # 2 sum_{k>K} |anti_k| / m is <= 1e-16 L, about half an ulp of the length
        tail = np.append(np.cumsum(np.abs(anti)[::-1])[::-1], 0.0)
        self._anti = anti[:int(np.argmax(2.0 * tail / m <= 1e-16 * self.length))]
        self._anti_n = m
        self._mean_speed = coeffs[0].real / m
        self.s_nodes = self.length * np.arange(self.n) / self.n
        self.t_nodes = self.t_at(self.s_nodes)
        self.points = curve.point(self.t_nodes)
        self._closest, self._reach = self._scan_chords()

    def arclen(self, t) -> np.ndarray:
        """Arc length from parameter 0 to t."""
        t = np.asarray(t, dtype=float)
        m = np.arange(1, self._anti.shape[0] + 1, dtype=float)
        phase = np.exp(1j * np.multiply.outer(t, m))
        periodic = 2.0 * np.real(phase @ self._anti) / self._anti_n
        periodic0 = 2.0 * np.real(np.sum(self._anti)) / self._anti_n
        return self._mean_speed * t + periodic - periodic0

    def t_at(self, s) -> np.ndarray:
        """Invert the arc-length function by Newton iteration."""
        s = np.asarray(s, dtype=float)
        t = s / self._mean_speed
        for _ in range(60):
            f = self.arclen(t) - s
            step = f / self.curve.speed(t)
            t = t - step
            if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(t))):
                break
        return t

    def _scan_chords(self):
        """One scan of the sampled chord matrix: (self_distance, reach).

        Pairs closer than the curvature window min(pi/kappa_max, L/4) are
        skipped: inside it the chord is Schur-bounded below by the kappa
        circle, so no excluded pair comes nearer than the curvature allows or
        undercuts 1/kappa. The closest pair (distance, s_i, s_j) is taken at
        index separation >= max(1, window/h); the reach is min(1/kappa_max,
        half the closest bottleneck), bottlenecks being discrete local minima
        of the chord distance in both indices at separation >= max(2, window/h).
        Window edge minima are not local minima of the unmasked distance (the
        chord keeps shrinking into the window), and convex curves, which never
        double back, have no bottleneck: their reach is 1/kappa.
        """
        kappa = self.curve.max_curvature()
        k_win = int(np.ceil(min(np.pi / kappa, self.length / 4.0) / (self.length / self.n)))
        p = self.points
        d2 = cdist(p, p, "sqeuclidean")
        # index separation is circulant: one row of min(k, n - k) masks every pair
        sep = np.minimum(np.arange(self.n), self.n - np.arange(self.n))
        i, j = np.unravel_index(
            np.argmin(np.where(circulant(sep >= max(1, k_win)), d2, np.inf)), d2.shape)
        closest = (float(np.sqrt(d2[i, j])), float(self.s_nodes[i]), float(self.s_nodes[j]))
        # local minima in both indices, against the four neighbours in a wrapped copy
        w = np.pad(d2, 1, mode="wrap")
        local = circulant(sep >= max(2, k_win))
        for nb in (w[:-2, 1:-1], w[2:, 1:-1], w[1:-1, :-2], w[1:-1, 2:]):
            local &= d2 <= nb
        reach = 1.0 / kappa
        if np.any(local):
            reach = min(reach, 0.5 * np.sqrt(np.min(d2[local])))
        return closest, float(reach)

    def self_distance(self):
        """Minimal distance between samples beyond the curvature window:
        (distance, s_i, s_j)."""
        return self._closest

    def reach(self) -> float:
        """min(1/max curvature, half the closest bottleneck distance)."""
        return self._reach


def resample_arclength(curve: FourierCurve, n: int) -> ArcLengthCurve:
    """Arc-length parametrization with n uniform samples; rejects non-embedded curves.

    The returned model satisfies |dc/ds| = 1 at the samples to the accuracy of
    the Newton inversion (~1e-12 relative).
    """
    arc = ArcLengthCurve(curve, n)
    dmin, si, sj = arc.self_distance()
    if dmin < 1e-6 * max(arc.length, 1.0):
        ti, tj = arc.t_at(np.array([si, sj]))
        raise EmbeddingError(
            f"curve nearly self-intersects: |c(t1)-c(t2)| = {dmin:.3e} "
            f"for t1 = {ti:.6f}, t2 = {tj:.6f}"
        )
    return arc


@dataclass(frozen=True)
class LinkSpec:
    """A finite link: Beltrami eigenvalue plus one FourierCurve per component."""

    lam: float
    components: tuple

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam!r}")
        if not self.lam > 0.0:
            if self.lam == 0.0:
                raise ValueError("lambda must be nonzero (lambda > 0 required)")
            raise ValueError("lambda must be positive (negative lambda reduces to "
                             "positive under the reflection x -> -x)")
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("link needs at least one component")
        for c in comps:
            if not isinstance(c, FourierCurve):
                raise TypeError("components must be FourierCurve instances")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)
