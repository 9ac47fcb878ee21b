"""Independent references the benchmark checks gausslip's outputs against.

Nothing here imports gausslip.  Hermite values are numpy's physicists' H_n
(``numpy.polynomial.hermite.hermvander``, the table form of ``hermval``)
divided by sqrt(2^n n!); spectral probes are recomputed densely as a coefficient vector
times a multiplier, evaluated on the same 121-point grid plus 41-point
refinement the library uses; semigroup actions use their closed forms.
"""
from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)

#: relative agreement required between a probe and its dense reference
PROBE_RTOL = 1e-10
#: the library's own noise floor for an exactly vanishing seminorm
#: (``derivative_equivalence_probe``): 1e-12 (1 + sup|f|)
PROBE_NOISE = 1e-12
#: eigenvalues of the integral representation against the closed form
INTEGRAL_RTOL = 1e-5

DEFAULT_T_GRID = tuple(np.geomspace(0.0125, 4.0, 16))


def hermite_table(n_max: int, x) -> np.ndarray:
    """Orthonormal Hermite values h_n(x), shape (n_max + 1, x.size)."""
    x = np.asarray(x, dtype=float).ravel()
    raw = np.polynomial.hermite.hermvander(x, n_max).T
    n = np.arange(n_max + 1)
    log_norm = 0.5 * np.array([k * math.log(2.0) + math.lgamma(k + 1.0) for k in n])
    return raw / np.exp(log_norm)[:, None]


def h_values(nu, pts) -> np.ndarray:
    """h_nu at points of shape (m, d)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, len(nu))
    out = np.ones(pts.shape[0])
    for axis, n in enumerate(nu):
        out = out * hermite_table(n, pts[:, axis])[n]
    return out


def rel_dev(got, want) -> float:
    """max |got - want| / max |want|, the deviation the eigen suite reports."""
    got = np.asarray(got, dtype=float).ravel()
    want = np.asarray(want, dtype=float).ravel()
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return math.inf
    scale = float(np.max(np.abs(want)))
    dev = float(np.max(np.abs(got - want)))
    return dev / scale if scale > 0 else dev


# ----------------------------------------------------------------------------
# Dense spectral probes (d = 1)
# ----------------------------------------------------------------------------

class Dense:
    """Grid sups of sum_n c_n m_n h_n on [-R, R], vectorized over multipliers."""

    def __init__(self, n_max: int = 40, x_radius: float = 3.0, grid_points: int = 121):
        self.n = np.arange(n_max + 1)
        self.root = np.sqrt(self.n)
        self.radius = x_radius
        self.xs = np.linspace(-x_radius, x_radius, grid_points)
        self.table = hermite_table(n_max, self.xs)

    def sups(self, coeffs: np.ndarray) -> np.ndarray:
        """Refined grid sup of |f| for each row of ``coeffs`` (T, N+1)."""
        coeffs = np.atleast_2d(coeffs)
        vals = np.abs(coeffs @ self.table)
        i = np.argmax(vals, axis=1)
        h = self.xs[1] - self.xs[0]
        lo = np.maximum(-self.radius, self.xs[i] - h)
        hi = np.minimum(self.radius, self.xs[i] + h)
        fine = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 41)[None, :]
        fine[:, -1] = hi
        ftab = hermite_table(self.n[-1], fine).reshape(self.n.size, *fine.shape)
        fvals = np.abs(np.einsum("tn,ntx->tx", coeffs, ftab))
        return np.maximum(fvals.max(axis=1), vals[np.arange(len(i)), i])

    def derivative_sups(self, c: np.ndarray, order: int, t_grid) -> np.ndarray:
        t = np.asarray(t_grid, dtype=float)[:, None]
        mult = (-self.root[None, :]) ** order * np.exp(-self.root[None, :] * t)
        return self.sups(c[None, :] * mult)

    def seminorm(self, c: np.ndarray, alpha: float, t_grid=DEFAULT_T_GRID, n=None) -> dict:
        if n is None:
            n = int(math.floor(alpha)) + 1
        t = np.sort(np.asarray(t_grid, dtype=float))
        sup_f = float(self.sups(c)[0])
        rows = self.derivative_sups(c, n, t)
        weighted = t ** (n - alpha) * rows
        return {"sup_f": sup_f, "rows": rows, "weighted": weighted,
                "a_alpha": float(weighted.max()), "t": t, "n": n}

    def modulus(self, c: np.ndarray, alpha: float, t_grid=DEFAULT_T_GRID) -> dict:
        n = int(math.floor(alpha)) + 1
        t = np.sort(np.asarray(t_grid, dtype=float))
        sup_f = float(self.sups(c)[0])
        mult = np.expm1(-self.root[None, :] * t[:, None]) ** n
        norms = self.sups(c[None, :] * mult)
        return {"norms": norms, "ratios": norms / t ** alpha,
                "ceiling": 2.0 ** n * sup_f}

    def inclusion(self, c: np.ndarray, alpha1: float, alpha2: float,
                  t_grid=DEFAULT_T_GRID) -> dict:
        n = int(math.floor(alpha2)) + 1
        t = np.sort(np.asarray(t_grid, dtype=float))
        rows = self.derivative_sups(c, n, t)
        a1 = float(np.max(t ** (n - alpha1) * rows))
        a2 = float(np.max(t ** (n - alpha2) * rows))
        big = t >= 1.0
        c_remark = float(np.max(t[big] ** n * rows[big])) if np.any(big) else 0.0
        return {"a_alpha1": a1, "a_alpha2": a2, "c_remark": c_remark,
                "bound": max(a2, c_remark)}

    def operator_multiplier(self, kind: str, beta: float) -> np.ndarray:
        n = self.n.astype(float)
        with np.errstate(divide="ignore"):
            table = {
                "bessel_potential": (1.0 + n) ** (-beta / 2.0),
                "bessel_derivative": (1.0 + n) ** (beta / 2.0),
                "riesz_potential": np.where(n == 0, 0.0, n ** (-beta / 2.0)),
                "riesz_derivative": np.where(n == 0, 0.0, n ** (beta / 2.0)),
            }
        return table[kind]


def integral_eigenvalue(kind: str, beta: float, n: int) -> float:
    """Closed-form action of the integral representation on chaos level n."""
    root = math.sqrt(n)
    if kind == "bessel_potential":
        return (1.0 + root) ** (-beta)
    if kind == "bessel_derivative":
        return (1.0 + root) ** beta
    if kind == "riesz_potential":
        return 0.0 if n == 0 else n ** (-beta / 2.0)
    return n ** (beta / 2.0)


def project(f, n_max: int = 40, nodes: int = 64) -> np.ndarray:
    """Fourier-Hermite coefficients of a 1-d callable by Gauss-Hermite."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    vals = np.asarray(f(x[:, None]), dtype=float)
    return hermite_table(n_max, x) @ (w * vals) / SQRT_PI


# ----------------------------------------------------------------------------
# Poisson-Hermite kernel derivatives
# ----------------------------------------------------------------------------
# With u = t^2 / 4s the k-th t-derivative of the stable density becomes
#   d^k g(t, s) ds = q_k(u) e^{-u} u^{-1/2} du / (t^k sqrt(pi)).

_Q = {1: (1.0, -2.0), 2: (0.0, -6.0, 4.0), 3: (0.0, -6.0, 24.0, -8.0)}


def weight_mass(k: int, t: float) -> float:
    """∫ |d^k g(t, s)| ds in closed form (incomplete gamma functions).

    Since the Mehler kernel has unit y-mass, this majorizes the L^1 norm of
    d^k p(t, x, .) over any y-domain.
    """
    from scipy import special  # only the kernel-apply checks need scipy

    q = np.asarray(_Q[k])
    roots = sorted(r.real for r in np.roots(q[::-1]) if abs(r.imag) < 1e-12 and r.real > 0)
    edges = [0.0] + roots + [math.inf]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        piece = 0.0
        for j, coef in enumerate(q):
            if coef == 0.0:
                continue
            s = j + 0.5
            upper = 1.0 if math.isinf(b) else special.gammainc(s, b)
            piece += coef * special.gamma(s) * (upper - special.gammainc(s, a))
        total += abs(piece)
    return total / (t ** k * SQRT_PI)


def ph_cos_derivative(k: int, t: float, x: float, omega: float) -> float:
    """d^k/dt^k P_t cos(omega .)(x), by a scipy quadrature over u = v^2.

    T_s cos(omega .)(x) = cos(omega e^{-s} x) e^{-omega^2 (1 - e^{-2s}) / 4}
    for the Gaussian measure e^{-x^2} / sqrt(pi).
    """
    from scipy import integrate

    q = np.polynomial.polynomial.Polynomial(_Q[k])

    def integrand(v):
        u = v * v
        if u == 0.0:
            return 0.0
        s = t * t / (4.0 * u)
        ts = math.cos(omega * math.exp(-s) * x) * math.exp(-0.25 * omega ** 2 * -math.expm1(-2.0 * s))
        return 2.0 * q(u) * math.exp(-u) * ts

    val, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val / (t ** k * SQRT_PI)
