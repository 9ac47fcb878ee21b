"""Ornstein-Uhlenbeck and Poisson-Hermite semigroups in three representations.

T_t acts on chaos level n by e^{-tn}; its kernel against Lebesgue measure is
the explicit Gaussian (Mehler) kernel.  P_t acts by e^{-sqrt(n) t} and is the
subordination of T against the one-sided stable density of order 1/2,

    g(t, s) = t / (2 sqrt(pi)) * e^{-t^2/4s} * s^{-3/2},

which also yields the integral kernel p(t, x, y) and, by differentiating the
scalar factor t e^{-t^2/4s} under the integral sign, its time derivatives up
to order 3.

Representations:
  * ``spectral``      -- exact multiplier action on a HermiteExpansion,
  * ``kernel``        -- for P_t, quadrature of the explicit kernel over a
                         truncated y-domain (per point and axis,
                         min(0, x_i) - 8 <= y_i <= max(0, x_i) + 8); for T_t,
                         Mehler's formula (below),
  * ``subordination`` -- s-integral of T_s against g(t, s), T_s by Mehler's
                         formula.

Mehler's formula writes T_s as a Gaussian average,

    T_s f(x) = ∫ f(e^{-s} x + sqrt(1 - e^{-2s}) y) dgamma(y),

which the 64-node Gauss-Hermite tensor rule evaluates with no truncation and
exactly for polynomials of degree < 128 in each variable.  ``ou_apply`` and
``ph_apply`` build the rule once, when they make the operator.

Every s-integral against d^k g/dt^k runs against T_s - T_inf, where T_inf f
is the gamma-mean of f: the integrand then decays like e^{-s} instead of
s^{-3/2}, and is 0 to float64 rounding once e^{-s} x is (s ~ 40).
T_inf comes back in closed form, since ∫ g ds = 1 and ∫ d^k g/dt^k ds = 0
for k >= 1.  The integral runs in u = log s (``integrate_halfline(rapid=True)``):
e^{-t^2/4s} and e^{-s} vanish double-exponentially in u at both ends, so the
trapezoid rule in u needs no further map, and it keeps the integrand's full
strip of analyticity |Im u| < pi/2 where the mass sits (s ~ t^2), which the
exp-sinh map would narrow at small t and high chaos levels.

The kernel route applies P_t (and its t-derivatives) as one
s-integral per call whose payload is the batch of values at the x-points:
by Fubini the y-quadrature runs inside the s-integrand, so the error control
acts on d^k/dt^k P_t f(x) itself.  The batch's graded y-grids are built
together, one array per axis with a row per point whose end carries zero
weights; f is evaluated once per call, at the nodes of nonzero weight only,
and at each s-node the Mehler kernel, a product of 1-d kernels, is applied to
f on the tensor y-grids one axis at a time.  The pointwise kernels
``ph_kernel`` / ``ph_kernel_time_derivative`` and the L^1 routine keep the
s-integral inside, since |p| is needed pointwise there.

Pointwise callables follow the batch contract of ``quadrature.eval_batch``:
point batches of shape (n, d) in, shape (n,) out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hermite import HermiteExpansion, as_function, as_points, point_or_batch, scale_by_level
from .quadrature import (
    default_rule,
    eval_batch,
    gauss_legendre_panels,
    integrate_halfline,
    tensor_nodes,
)

METHODS = ("spectral", "kernel", "subordination")

_SQRT_PI = math.sqrt(math.pi)

# e^{-v} weight below ~1e-20 for v > _V_CUT; sets the smallest s-scale that
# can contribute, hence the inner panel width of graded y-grids.
_V_CUT = 45.0

# y-grids reach this far past the Mehler centres e^{-s} x (std <= 1/sqrt 2),
# which lie between 0 and x: the dropped Gaussian mass is <= erfc(8) per side
_Y_MARGIN = 8.0


@dataclass(frozen=True)
class SemigroupQuery:
    """Time, representation method, and t-derivative order for T_t / P_t."""

    t: float
    method: str = "spectral"
    derivative_order: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.derivative_order < 0:
            raise ValueError("derivative_order must be >= 0")
        if not 0 <= self.t < math.inf:
            raise ValueError("time t must be finite and >= 0")
        if self.t == 0 and (self.method != "spectral" or self.derivative_order > 0):
            raise ValueError("t = 0 is only allowed for the spectral identity")


class KernelL1(NamedTuple):
    value: float
    tail_bound: float


# ----------------------------------------------------------------------------
# Kernels and densities
# ----------------------------------------------------------------------------

def _mehler_from_s(s, x, y, d: int):
    """exp(-|y - e^{-s} x|^2 / (1-e^{-2s})) / (pi (1-e^{-2s}))^{d/2}.

    ``x`` and ``y`` carry coordinates on the last axis; ``s`` broadcasts
    against the batch axes.  Evaluated in log form so that small 1-r^2 cannot
    overflow the prefactor.
    """
    s = np.asarray(s, dtype=float)
    r = np.exp(-s)
    one_minus_r2 = -np.expm1(-2.0 * s)
    # in place: the contraction calls this on (S, X, N) arrays
    q = y - r[..., None] * x
    q *= q
    q = q[..., 0] if d == 1 else np.sum(q, axis=-1)
    q /= one_minus_r2
    np.negative(q, out=q)
    q -= 0.5 * d * np.log(math.pi * one_minus_r2)
    return np.exp(q, out=q)


def mehler_kernel(t: float, x, y, d: int = 1):
    """Ornstein-Uhlenbeck transition kernel against Lebesgue dy.

    ``x`` and ``y`` broadcast as point batches; returns the batch of kernel
    values (float for a single pair).
    """
    if not 0 < t < math.inf:
        raise ValueError("time t must be positive and finite for the kernel representation")
    X = as_points(x, d)
    Y = as_points(y, d)
    out = _mehler_from_s(t, X, Y, d)
    if out.shape == ():
        return float(out)
    return out


def stable_density(t: float, s):
    """Density g(t, s) of the one-sided stable measure of order 1/2, t > 0."""
    if not 0 < t < math.inf:
        raise ValueError("time t must be positive and finite")
    arr = np.asarray(s, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("the stable density lives on s > 0")
    out = _stable_weight_factor(t, arr, 0)
    if out.shape == ():
        return float(out)
    return out


def _stable_weight_factor(t: float, s: np.ndarray, k: int) -> np.ndarray:
    """k-th t-derivative of g(t, s), k <= 3, vectorized in s.

    Differentiating the scalar factor phi(t) = t e^{-t^2/4s} gives
      phi'   = (1 - t^2/2s) e^{-t^2/4s}
      phi''  = (t^3/4s^2 - 3t/2s) e^{-t^2/4s}
      phi''' = (-3/2s + 3t^2/2s^2 - t^4/8s^3) e^{-t^2/4s}
    and d^k g/dt^k = phi^{(k)} s^{-3/2} / (2 sqrt(pi)).
    """
    _check_kernel_order(k)
    s = np.asarray(s, dtype=float)
    expo = np.exp(-t * t / (4.0 * s) - 1.5 * np.log(s)) / (2.0 * _SQRT_PI)
    if k == 0:
        poly = t
    elif k == 1:
        poly = 1.0 - t * t / (2.0 * s)
    elif k == 2:
        poly = t ** 3 / (4.0 * s * s) - 1.5 * t / s
    else:
        poly = -1.5 / s + 1.5 * t * t / (s * s) - t ** 4 / (8.0 * s ** 3)
    return poly * expo


def _check_kernel_order(k: int) -> None:
    if k > 3:
        raise NotImplementedError(
            "kernel time derivatives are implemented for k <= 3; use the "
            "spectral representation beyond that")


# ----------------------------------------------------------------------------
# T_s by Mehler's formula
# ----------------------------------------------------------------------------

# f-values per s-node in one block of ``_mehler_gauss_hermite``: 256 points
# on the 64-node rule at d = 1, 4 at d = 2 (one at d = 3, which has more);
# keeps its (S, block, m^d) node and value arrays near 1 MB for the
# half-line rule's 8 s-nodes per call
_GH_BLOCK_VALUES = 16384


def _mehler_gauss_hermite(f, s: np.ndarray, pts: np.ndarray, nodes) -> np.ndarray:
    """T_s f at the points for each s, shape (S, X), by Mehler's formula

        T_s f(x) = ∫ f(e^{-s} x + sqrt(1 - e^{-2s}) y) dgamma(y)

    on the tensor Gauss-Hermite rule ``nodes`` (points (m^d, d), weights).
    ``f`` is evaluated once per block of points, on all S * block * m^d
    points of the block.
    """
    U, wu = nodes
    X, d = pts.shape
    r = np.exp(-s)[:, None, None, None]
    sig = np.sqrt(-np.expm1(-2.0 * s))[:, None, None, None]
    block = max(1, _GH_BLOCK_VALUES // U.shape[0])
    out = np.empty((s.shape[0], X))
    for lo in range(0, X, block):
        xb = pts[lo:lo + block]
        z = r * xb[None, :, None, :] + sig * U[None, None, :, :]
        fv = eval_batch(f, z.reshape(-1, d)).reshape(s.shape[0], xb.shape[0], U.shape[0])
        out[:, lo:lo + block] = fv @ wu
    return out / math.pi ** (d / 2.0)


# ----------------------------------------------------------------------------
# Subordination: s-integrals against d^k/dt^k g(t, s)
# ----------------------------------------------------------------------------

def _subordinate(t: float, k: int, semigroup, tol: float) -> np.ndarray:
    """∫ d^k/dt^k g(t, s) T_s ds for ``semigroup``: s (S,) -> T_s values
    (S, ...), which must also take s = inf.

    Integrates d^k g (T_s - T_inf) in u = log s and adds T_inf back for
    k = 0: the integrand decays like e^{-s} and reads 0 past s ~ 40.
    """
    limit = semigroup(np.array([np.inf]))[0]

    def integrand(s):
        # eval_batch's per-node retry passes scalar nodes
        sv = np.atleast_1d(s)
        v = semigroup(sv) - limit
        v *= _stable_weight_factor(t, sv, k).reshape((-1,) + (1,) * limit.ndim)
        return v.reshape(np.shape(s) + limit.shape)

    vals = np.asarray(integrate_halfline(integrand, tol=tol, rapid=True))
    return vals + limit if k == 0 else vals


# ----------------------------------------------------------------------------
# Truncated y-grids
# ----------------------------------------------------------------------------

def _min_sigma(t: float) -> float:
    s_min = t * t / (4.0 * _V_CUT)
    return math.sqrt(0.5 * -math.expm1(-2.0 * s_min))


def _check_finite_points(pts: np.ndarray) -> None:
    if not np.isfinite(pts).all():
        raise ValueError("kernel-route points must be finite")


def _graded_panels(t: float, c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Legendre nodes and weights (X, N) on [lo_i, hi_i], graded toward
    c_i, one row per point on one axis.

    Panel widths start at half the spike width at the smallest contributing
    s, grow by 1.5 up to 1 away from c_i and are the same in every row: the
    breakpoints are c_i plus or minus their running sums, clipped at lo_i and
    hi_i.  Each row's panels come first; shorter rows end in zero-width
    panels at hi_i.
    """
    _check_finite_points(c)
    inner = 0.5 * _min_sigma(t)
    ramp = np.multiply.accumulate(np.r_[inner, np.full(math.ceil(-math.log(inner, 1.5)), 1.5)])
    span = float(np.max(np.maximum(hi - c, c - lo)))
    widths = np.r_[np.minimum(ramp, 1.0), np.ones(math.ceil(span))]
    steps = np.broadcast_to(widths, (c.size, widths.size))
    right = np.minimum(np.cumsum(np.c_[c, steps], axis=1), hi[:, None])
    left = np.maximum(np.cumsum(np.c_[c, -steps], axis=1), lo[:, None])
    breaks = np.c_[left[:, :0:-1], right]
    # drop each row's leading repeats of lo_i; trailing ones of hi_i pad it
    at_lo = np.count_nonzero(breaks == lo[:, None], axis=1)
    at_hi = np.count_nonzero(breaks == hi[:, None], axis=1)
    count = breaks.shape[1] + 2 - at_lo - at_hi
    cols = np.minimum(at_lo[:, None] - 1 + np.arange(count.max()), breaks.shape[1] - 1)
    return gauss_legendre_panels(np.take_along_axis(breaks, cols, axis=1))


def _ph_graded_grids(t: float, pts: np.ndarray, func):
    """Per-point graded y-grids and ``func`` on them, as ``_mehler_contract``
    takes them.

    Point i gets the tensor grid of its per-axis panels graded toward x_i,
    on [min(0, x_ia), max(0, x_ia)] widened by ``_Y_MARGIN``; each axis is
    one (X, N_a) array whose rows end in zero weights.  ``func`` is evaluated
    once, on the nodes of nonzero weight, point by point in row-major order;
    F is 0 elsewhere.
    """
    X, d = pts.shape
    axes = [_graded_panels(t, c, np.minimum(c, 0.0) - _Y_MARGIN, np.maximum(c, 0.0) + _Y_MARGIN)
            for c in pts.T]
    shape = (X,) + tuple(y.shape[1] for y, _ in axes)

    def along(v, a):
        return v.reshape((X,) + (1,) * a + (-1,) + (1,) * (d - 1 - a))

    used = np.ones(shape, dtype=bool)
    for a, (_, w) in enumerate(axes):
        used &= along(w, a) > 0
    F = np.zeros(shape)
    F[used] = eval_batch(func, np.stack([np.broadcast_to(along(y, a), shape)[used]
                                         for a, (y, _) in enumerate(axes)], axis=-1))
    return axes, F


# ----------------------------------------------------------------------------
# Separable Mehler contraction
# ----------------------------------------------------------------------------

# x-points per block of ``_mehler_contract``: keeps its (S, block, N) factor
# arrays at a few MB for the half-line rule's 8 s-nodes per call and ~600
# nodes per axis
_X_BLOCK = 64


def _mehler_contract(s: np.ndarray, pts: np.ndarray, axes, F: np.ndarray) -> np.ndarray:
    """Sum over a tensor y-grid of M_s(x, y) w(y) F(x; y), shape (S, X).

    The d-dimensional Mehler kernel is the product of 1-d kernels, so the sum
    is d successive 1-d contractions of ``F`` (shape (X, N_1, ..., N_d)) with
    the weighted factors m(s, x_a, y_a) w_a: O(N d) exponentials per s-node
    and point instead of O(N^d).  ``axes[a]`` holds the nodes and weights of
    axis a, shape (X, N_a).
    """
    X = pts.shape[0]
    out = np.empty((s.size, X))
    for lo in range(0, X, _X_BLOCK):
        blk = slice(lo, lo + _X_BLOCK)
        xb = pts[blk]
        acc = F[blk].reshape(len(xb), 1, -1)
        for a, (y, w) in enumerate(axes):
            m = _mehler_from_s(s[:, None, None], xb[None, :, None, a:a + 1],
                               y[None, blk, :, None], 1)
            m *= w[blk]
            m = m.transpose(1, 0, 2)[:, :, None, :]          # (block, S, 1, N_a)
            acc = (m @ acc.reshape(acc.shape[:2] + (y.shape[-1], -1)))[:, :, 0, :]
        out[:, blk] = acc[:, :, 0].T
    return out


# ----------------------------------------------------------------------------
# Ornstein-Uhlenbeck semigroup
# ----------------------------------------------------------------------------

def ou_apply(f, q: SemigroupQuery, *, d: int = 1):
    """Apply T_t.  Spectral input must be a HermiteExpansion; the kernel
    method accepts a callable (or an expansion, which is wrapped) and returns
    a callable that evaluates T_t f by Mehler's formula."""
    if q.derivative_order != 0:
        raise ValueError("ou_apply supports derivative_order = 0 only")
    if q.method == "spectral":
        if not isinstance(f, HermiteExpansion):
            raise ValueError("the spectral method requires a HermiteExpansion input")
        t = q.t
        return scale_by_level(f, lambda n: np.exp(-t * n))
    if q.method != "kernel":
        raise ValueError("ou_apply supports the spectral and kernel methods")
    func = as_function(f) if isinstance(f, HermiteExpansion) else f
    dim = f.dimension if isinstance(f, HermiteExpansion) else d
    s = np.array([q.t])
    nodes = tensor_nodes(default_rule(), dim)

    def apply_at(x):
        pts = as_points(x, dim).reshape(-1, dim)
        if pts.shape[0] == 0:
            return np.empty(0)
        return point_or_batch(x, _mehler_gauss_hermite(func, s, pts, nodes)[0], dim)

    return apply_at


# ----------------------------------------------------------------------------
# Poisson-Hermite kernel p(t, x, y) and its t-derivatives
# ----------------------------------------------------------------------------

def _ph_kernel_payload(t: float, x_pt: np.ndarray, Y: np.ndarray, d: int,
                       k: int, tol: float) -> np.ndarray:
    """Integrate g-factor(t, s) * mehler(s, x, y) over s for a batch of y."""
    return _subordinate(t, k, lambda s: _mehler_from_s(
        s[:, None], x_pt[None, None, :], Y[None, :, :], d), tol)


def _point_batches(x, y, d: int):
    X = as_points(x, d)
    Y = as_points(y, d)
    batch = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1])
    single = (np.asarray(x).ndim <= 1 and np.asarray(y).ndim <= 1
              and batch in ((), (1,)))
    Xb = np.broadcast_to(X, batch + (d,)).reshape(-1, d)
    Yb = np.broadcast_to(Y, batch + (d,)).reshape(-1, d)
    return Xb, Yb, batch, single


def _ph_kernel_values(t: float, x, y, d: int, k: int, tol: float):
    """d^k/dt^k p(t, x, y) on broadcast point batches (k = 0: the kernel)."""
    if not 0 < t < math.inf:
        raise ValueError("time t must be positive and finite for the kernel representation")
    _check_kernel_order(k)
    Xb, Yb, batch, single = _point_batches(x, y, d)
    _check_finite_points(Xb)
    _check_finite_points(Yb)

    # Group by x-point so each s-integral carries the whole y-batch.
    out = np.empty(Xb.shape[0])
    seen: dict = {}
    for i in range(Xb.shape[0]):
        seen.setdefault(tuple(Xb[i]), []).append(i)
    for idx in seen.values():
        rows = np.asarray(idx)
        out[rows] = _ph_kernel_payload(t, Xb[rows[0]], Yb[rows], d, k, tol)
    if single:
        return float(out[0])
    return out.reshape(batch)


def ph_kernel(t: float, x, y, tol: float = 1e-9, d: int = 1):
    """Poisson-Hermite kernel p(t, x, y) by subordination quadrature."""
    return _ph_kernel_values(t, x, y, d, 0, tol)


def ph_kernel_time_derivative(t: float, x, y, k: int, tol: float = 1e-9, d: int = 1):
    """d^k/dt^k of p(t, x, y) for 1 <= k <= 3 (differentiation under the
    integral sign; the k-fold factor is hardcoded)."""
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    return _ph_kernel_values(t, x, y, d, k, tol)


# ----------------------------------------------------------------------------
# Poisson-Hermite semigroup
# ----------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _subordination_multiplier(t: float, levels: tuple, tol: float) -> np.ndarray:
    """lambda_n(t) = ∫_0^infty e^{-n s} g(t, s) ds (equals e^{-sqrt(n) t}) for
    every n in ``levels``, as one read-only array.

    One s-integral whose payload holds T_s on each level; its stopping rule
    holds every level to ``tol``, and its truncation is the union of theirs.
    """
    n = np.asarray(levels, dtype=float)

    def on_levels(s):
        # e^{-n s}; on level 0 it is 1 at every s, s = inf included
        return np.exp(np.multiply.outer(-s, n, out=np.zeros((s.size, n.size)), where=n > 0))

    out = _subordinate(t, 0, on_levels, tol)
    out.setflags(write=False)
    return out


def ph_symbol(t, levels, k: int = 0) -> np.ndarray:
    """The spectral multiplier (-sqrt(n))^k e^{-sqrt(n) t} of d^k/dt^k P_t on
    the chaos levels n; a column of times ``t`` against the row of levels
    gives the (T, L) symbol matrix."""
    neg_root = -np.sqrt(levels)
    return neg_root ** k * np.exp(neg_root * t)


def ph_apply(f, q: SemigroupQuery, *, d: int = 1, tol: float = 1e-8):
    """Apply d^k/dt^k P_t in the representation selected by ``q``.

    spectral      : expansion -> expansion, multiplier (-sqrt(n))^k e^{-sqrt(n) t}
    subordination : k = 0 only; expansion -> expansion via one s-integral over its levels,
                    callable -> callable via Gauss-Hermite evaluation of T_s
    kernel        : callable (or wrapped expansion) -> callable via p(t, x, y)
                    quadrature on a graded truncated y-grid; k <= 3.
    """
    t = q.t
    k = q.derivative_order
    if q.method == "spectral":
        if not isinstance(f, HermiteExpansion):
            raise ValueError("the spectral method requires a HermiteExpansion input")
        return scale_by_level(f, lambda n: ph_symbol(t, n, k))

    if q.method == "subordination":
        if k > 0:
            raise NotImplementedError(
                "derivative_order > 0 is not supported with the subordination "
                "method; use the spectral or kernel representation")
        if isinstance(f, HermiteExpansion):
            return scale_by_level(
                f, lambda n: _subordination_multiplier(t, tuple(n.tolist()), tol))
        nodes = tensor_nodes(default_rule(), d)

        def apply_sub(x):
            pts = as_points(x, d).reshape(-1, d)
            if pts.shape[0] == 0:
                return np.empty(0)
            vals = _subordinate(t, 0, lambda s: _mehler_gauss_hermite(f, s, pts, nodes), tol)
            return point_or_batch(x, vals, d)

        return apply_sub

    # kernel method
    func = as_function(f) if isinstance(f, HermiteExpansion) else f
    dim = f.dimension if isinstance(f, HermiteExpansion) else d
    _check_kernel_order(k)

    def apply_kernel(x):
        pts = as_points(x, dim).reshape(-1, dim)
        if pts.shape[0] == 0:
            return np.empty(0)
        axes, F = _ph_graded_grids(t, pts, func)
        # Fubini: the y-quadrature runs inside the s-integrand, so the error
        # control acts on the values d^k/dt^k P_t f(x) themselves
        vals = _subordinate(t, k, lambda s: _mehler_contract(s, pts, axes, F), tol)
        return point_or_batch(x, vals, dim)

    return apply_kernel


def _weight_mass_constant(k: int) -> float:
    """C_k = t^k ∫ |d^k/dt^k g(t, s)| ds in closed form.

    With u = t^2/4s, t^k |d^k g| ds = |q_k(u)| e^{-u} u^{-1/2} du / sqrt(pi),
    and q_k(u) e^{-u} u^{-1/2} is the derivative of F_k(u) = p_k(u) sqrt(u)
    e^{-u}, which vanishes at 0 and oo.  The zeros of q_k cut (0, oo) into
    pieces of one sign, so C_k is the sum of |F_k(b) - F_k(a)| over them.
    """
    p, zeros = {1: (lambda u: 2.0, (0.5,)),
                2: (lambda u: -4.0 * u, (1.5,)),
                3: (lambda u: 8.0 * u * u - 4.0 * u,
                    (1.5 - math.sqrt(1.5), 1.5 + math.sqrt(1.5)))}[k]
    F = [0.0, *(p(u) * math.sqrt(u) * math.exp(-u) for u in zeros), 0.0]
    return sum(abs(b - a) for a, b in zip(F, F[1:])) / _SQRT_PI


def derivative_weight_mass(t: float, k: int) -> float:
    """∫ |d^k/dt^k g(t, s)| ds = C_k / t^k: the scalar majorant of the
    kernel-derivative L^1 norm obtained by moving the absolute value inside
    the s-integral (the y-mass of the Gaussian factor is 1).

    C_1 = 4/sqrt(2 pi e) <= 2, C_2 = 1.8501639576452313 and
    C_3 = 6.1445366794509875, in closed form (``_weight_mass_constant``).
    """
    if not 0 < t < math.inf:
        raise ValueError("time t must be positive and finite")
    if not 1 <= k <= 3:
        raise ValueError("derivative weight mass supports 1 <= k <= 3")
    return _weight_mass_constant(k) / t ** k


def kernel_derivative_l1(t: float, x: float, k: int, tol: float = 1e-8) -> KernelL1:
    """∫ |d^k/dt^k p(t, x, y)| dy over the truncated 1-d domain |y| <= R,
    R = 8 + 2|x|.

    The reported tail bound dominates the discarded |y| > R mass:
    ∫_{|y|>R} mehler(s, x, y) dy <= erfc(R - |x|) uniformly in s, times the
    total |.|-mass of the k-th derivative of the subordination weight.
    """
    if not 0 < t < math.inf:
        raise ValueError("time t must be positive and finite")
    if not 1 <= k <= 3:
        raise ValueError("kernel_derivative_l1 supports 1 <= k <= 3")
    x = float(x)
    R = _Y_MARGIN + 2.0 * abs(x)
    (y,), (wy,) = _graded_panels(t, np.array([x]), np.array([-R]), np.array([R]))
    vals = _ph_kernel_payload(t, np.array([x]), y[:, None], 1, k, tol)
    value = float(np.dot(wy, np.abs(vals)))
    tail = derivative_weight_mass(t, k) * math.erfc(R - abs(x))
    return KernelL1(value=value, tail_bound=tail)
