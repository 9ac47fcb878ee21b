"""Ornstein-Uhlenbeck and Poisson-Hermite semigroups in three representations.

T_t acts on chaos level n by e^{-tn}; its kernel against Lebesgue measure is
the explicit Gaussian (Mehler) kernel.  P_t acts by e^{-sqrt(n) t} and is the
subordination of T against the one-sided stable density of order 1/2,

    g(t, s) = t / (2 sqrt(pi)) * e^{-t^2/4s} * s^{-3/2},

which also yields the integral kernel p(t, x, y) and, differentiated under
the integral sign, its t-derivatives of every integer order k: d^k g/dt^k
is H_{k+1}(t / 2 sqrt s) times g's exponential (``_stable_weight_factor``).

Representations:
  * ``spectral``      -- exact multiplier action on a HermiteExpansion,
  * ``kernel``        -- for P_t, quadrature of the explicit kernel over a
                         truncated y-domain (per point and axis,
                         -hypot(min(x_i, 0), 8) <= y_i <= hypot(max(x_i, 0), 8),
                         where e^{-s} x_i +- 8 sqrt(1 - e^{-2s}) reach over
                         s); for T_t, Mehler's formula (below),
  * ``subordination`` -- s-integral of T_s against d^k g/dt^k (t, s),
                         T_s by Mehler's formula.

Mehler's formula, T_s f(x) = ∫ f(e^{-s} x + sqrt(1 - e^{-2s}) y) dgamma(y),
runs on the 64-node Gauss-Hermite tensor rule (``tensor_nodes``' cache):
no truncation, and exact for polynomials of degree < 128 in each variable.

Every s-integral runs against T_s - T_inf, T_inf f the gamma-mean of f, so
the integrand decays like e^{-s}; T_inf comes back in closed form, since
∫ g ds = 1 and ∫ d^k g/dt^k ds = 0 for k >= 1.  The term is exactly 0 where
d^k g underflows and past a route's ``s_far``, where the float64 T_s is
T_inf bit for bit, and the semigroup runs at neither.  The trapezoid rule
runs in u = log s (``integrate_halfline(rapid=True)``): the integrand
vanishes double-exponentially in u at both ends and keeps its strip of
analyticity |Im u| < pi/2 where the mass sits (s ~ t^2).  At k >= 1 the
terms cancel, by up to ∫|d^k g| ds = C_k / t^k against the value, and
``_subordinate`` raises where the rounding of the uncancelled values
exceeds tol; the pointwise kernels skip that guard and stop at k = 3.

The kernel route applies d^k/dt^k P_t as one s-integral per call whose
payload is the batch of values at the x-points (Fubini: the error control
acts on the values themselves).  It contracts the kernel against
f(y) - f(x) and adds f(x) back for k = 0: M_s(x, .) has unit mass, so the
integrand vanishes at the short-time spike and constants come back exactly.
The y-grids, graded toward each point, carry the weights multiplied into
F = f(y) - f(x), with f evaluated once per call; at each s-node the Mehler
kernel, a product of 1-d kernels, is applied one axis at a time with its
exponents raised to ``_EXP_FLOOR``.  The pointwise kernels ``ph_kernel`` /
``ph_kernel_time_derivative`` run one s-integral whose payload is every
(x, y) pair; the L^1 routine passes its one x through it on finer panels
(``_L1_GRADING``), as |p| has kinks at its sign changes near x.  Every
s-integrand blocks its temporaries within ``_BLOCK_VALUES``.

Callables follow the batch contract of ``quadrature.eval_batch``: (n, d)
points in, (n,) values out; one written for a single point is called once
per point, and complex values raise ``ValueError``.  Every evaluator this
module returns keeps the point contract of ``hermite.pointwise``: a float
for a single point, an array of the batch shape otherwise, and
``ValueError`` for a non-finite coordinate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .hermite import HermiteExpansion, as_function, as_points, pointwise, scale_by_level
from .quadrature import (
    _ROUNDING,
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

# y-grids reach this far past the Mehler centres r x, r = e^{-s}, in units of
# sqrt(1 - r^2) (std sqrt((1 - r^2) / 2) <= 1/sqrt 2): the dropped Gaussian
# mass is <= erfc(8) per side at every s.  Over s the ends r x +- 8 sqrt(1-r^2)
# reach -hypot(min(x, 0), 8) and hypot(max(x, 0), 8), the span of each axis
_Y_MARGIN = 8.0

# Mehler exponents are raised to this before ``exp`` in the kernel routes:
# numpy 2.4's exp is ~100 times slower on -745..-709 (subnormal results) and
# ~15 times below, where ~20% of the exponents lie.  e^{-690} ~ 2e-300 stays
# normal times the weights; a floored term adds <= e^{-690} (pi (1-r^2))^{-d/2} |w F|
_EXP_FLOOR = -690.0

# values per block of every temporary the s-integrands make (1 MiB of
# float64): they block over s-nodes as well as points, so only the (S, ...)
# payload grows with the size of a half-line level
_BLOCK_VALUES = 2 ** 17

# ``_subordinate``'s rounding guard at k >= 1, in units of eps: a term
# d^k g s (T_s - T_inf) carries ~eps d^k g s (|T_s| + |T_inf|) from before its
# cancellation, which the half-line rule, seeing the cancelled terms, misses.
# 4 for a margin: at 0 the tests' cases come back up to 2.2 tol off, at 1 none
_GUARD = 4.0

# ``_contract``'s s_far: expm1(-s) and 1 - e^{-2s} round to -1 and 1 from 54 log 2 ~ 37.43 on
_CONTRACT_S_FAR = 37.5


@dataclass(frozen=True)
class SemigroupQuery:
    """Time, representation method, and t-derivative order for T_t / P_t."""

    t: float
    method: str = "spectral"
    derivative_order: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        _check_integer_order(self.derivative_order)
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

def _mehler_log(s, x, y, d: int):
    """log of exp(-|y - e^{-s} x|^2 / (1-e^{-2s})) / (pi (1-e^{-2s}))^{d/2}.

    ``x`` and ``y`` carry coordinates on the last axis; ``s`` broadcasts
    against the batch axes.  Evaluated in log form so that small 1-r^2 cannot
    overflow the prefactor, and with y - e^{-s} x as (y - x) - expm1(-s) x:
    rounding e^{-s} first would move the centre by up to |x| eps, which the
    narrow width sqrt(1 - r^2) at small s turns into ~4e-12 relative per
    kernel value at s = 1e-7, x = 9.
    """
    s = np.asarray(s, dtype=float)
    one_minus_r2 = -np.expm1(-2.0 * s)
    q = (y - x) - np.expm1(-s)[..., None] * x
    # in place: the pointwise kernels call this on (S, P) arrays
    q *= q
    q = q[..., 0] if d == 1 else np.sum(q, axis=-1)
    q /= one_minus_r2
    np.negative(q, out=q)
    q -= 0.5 * d * np.log(math.pi * one_minus_r2)
    return q


def _floored_exp(q: np.ndarray) -> np.ndarray:
    """e^q in place, with q raised to ``_EXP_FLOOR`` first."""
    np.maximum(q, _EXP_FLOOR, out=q)
    return np.exp(q, out=q)


def mehler_kernel(t: float, x, y, d: int = 1):
    """Ornstein-Uhlenbeck transition kernel against Lebesgue dy.

    ``x`` and ``y`` broadcast as point batches (``pointwise``): a float for
    a single pair, else the array of the broadcast batch shape.
    """
    _check_time(t)
    return pointwise(d, lambda X, Y: np.exp(_mehler_log(t, X, Y, d)))(x, y)


def stable_density(t: float, s):
    """Density g(t, s) of the one-sided stable measure of order 1/2, t > 0."""
    _check_time(t)
    arr = np.asarray(s, dtype=float)
    if not np.all(arr > 0):
        raise ValueError("the stable density lives on s > 0")
    out = _stable_weight_factor(t, arr, 0)
    if out.shape == ():
        return float(out)
    return out


def _stable_weight_factor(t: float, s: np.ndarray, k: int) -> np.ndarray:
    """d^k g/dt^k (t, s) for an integer (or integer-valued float) k >= 0.

    By Rodrigues' formula, with u = t / (2 sqrt s) and H_n the physicists'
    Hermite polynomials,
        d^k g/dt^k = (-1)^k (2 sqrt s)^{1-k} H_{k+1}(u) e^{-u^2} s^{-3/2} / (4 sqrt pi)
                   = (-1)^k D_{k+1} e^{-t^2/4s} s^{-3/2} / (2 sqrt pi),
    where H's recurrence makes D_n = (2 sqrt s)^{2-n} H_n(u) / 2 polynomials
    in t and 1/s: D_0 = 2s, D_1 = t, D_{n+1} = (t D_n - n D_{n-1}) / 2s.  It
    runs on the D_n times the one exponential, so every step stays finite and
    is 0 where that is, at s = inf and where it underflows.
    """
    k = int(k)
    s = np.asarray(s, dtype=float)
    expo = np.exp(-t * t / (4.0 * s) - 1.5 * np.log(s)) / ((-1) ** k * 2.0 * _SQRT_PI)
    # a = D_{n-1} expo / 2s, which is expo for n = 1
    a, poly = expo, t * expo
    inv = 0.5 / s
    for n in range(1, k + 1):
        b = inv * poly
        a, poly = b, t * b - n * a
    return poly


def _check_time(t: float) -> None:
    if not 0 < t < math.inf:
        raise ValueError("time t must be positive and finite")


def _check_integer_order(k) -> None:
    if not float(k).is_integer():
        raise ValueError(f"derivative order {k} must be an integer")


def _check_kernel_order(k: int) -> None:
    # the pointwise kernels skip ``_subordinate``'s rounding guard, which on
    # their spike-valued payloads raised at k = 3, t = 0.01 where they land
    # within tol; orders above 3 need it
    _check_integer_order(k)
    if k > 3:
        raise NotImplementedError(
            "pointwise kernel time derivatives are implemented for k <= 3; use "
            "ph_apply beyond that")


# ----------------------------------------------------------------------------
# T_s by Mehler's formula
# ----------------------------------------------------------------------------

def _blocks(points: int, per_point: int, per_pair: int) -> tuple:
    """Points and s-nodes per block (at least one of each) that keep
    ``per_point`` values per point and ``per_pair`` per pair within
    ``_BLOCK_VALUES``; a power of two of points, as BLAS sums the rows of a
    (block, n) @ (n,) product four at a time: each sum is then the same."""
    fit = _BLOCK_VALUES // max(per_point, per_pair)
    xb = max(1, min(points, 1 << max(fit.bit_length() - 1, 0)))
    return xb, max(1, _BLOCK_VALUES // (xb * per_pair))


def _mehler_gauss_hermite(f, s: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """T_s f at the points for each s, shape (S, X), by Mehler's formula on
    the d-fold tensor of the default 64-node Gauss-Hermite rule.  ``f`` is
    evaluated once per block of s-nodes, points and rule nodes (all of them
    up to d = 2): their d coordinates and f's values count against
    ``_BLOCK_VALUES``.
    """
    X, d = pts.shape
    U, wu = tensor_nodes(default_rule(), d)
    r = np.exp(-s)[:, None, None, None]
    sig = np.sqrt(-np.expm1(-2.0 * s))[:, None, None, None]
    ub = min(U.shape[0], _BLOCK_VALUES // (d + 1))
    xb, sb = _blocks(X, 0, ub * (d + 1))
    out = np.empty((s.size, X))
    for lo in range(0, X, xb):
        x = pts[None, lo:lo + xb, None, :]
        for so in range(0, s.size, sb):
            for uo in range(0, U.shape[0], ub):
                z = r[so:so + sb] * x + sig[so:so + sb] * U[uo:uo + ub]
                part = eval_batch(f, z.reshape(-1, d)).reshape(z.shape[:3]) @ wu[uo:uo + ub]
                acc = part if uo == 0 else acc + part
            out[so:so + sb, lo:lo + xb] = acc
    return out / math.pi ** (d / 2.0)


def _gauss_hermite_s_far(pts: np.ndarray) -> float:
    """The s past which ``_mehler_gauss_hermite``'s rule points e^{-s} x +
    sqrt(1 - e^{-2s}) U round to U, as at s = inf: sigma rounds to 1 past
    s = 19, and |e^{-s} x| stays below an eighth of the float spacing at the
    rule's smallest |node|, within half a spacing of every coordinate."""
    tiny = np.spacing(np.min(np.abs(default_rule().nodes))) / 8.0
    return max(19.0, math.log(max(float(np.max(np.abs(pts))), tiny) / tiny))


# ----------------------------------------------------------------------------
# Subordination: s-integrals against d^k/dt^k g(t, s)
# ----------------------------------------------------------------------------

def _subordinate(t: float, k: int, semigroup, tol: float, s_far: float = math.inf,
                 guarded: bool = True) -> np.ndarray:
    """∫ d^k/dt^k g(t, s) T_s ds for ``semigroup``: s (S,) -> T_s values
    (S, ...), which must also take s = inf.

    Integrates d^k g (T_s - T_inf) in u = log s and adds T_inf back for
    k = 0: the integrand decays like e^{-s}.  The one place that decides
    where the semigroup runs: its term is exactly 0 where d^k g underflows
    to 0, and at s >= ``s_far``, past which the caller's float64 T_s is
    T_inf bit for bit, so ``semigroup`` runs at neither.  T_inf has no call
    of its own: the first call, the first level's (or, on eval_batch's
    per-node retry, the first node's), takes s = inf after its live nodes.
    A skipped node's term is 0 against that batch's T_inf, which may differ
    from a lone s = inf column in the last bits.

    At k >= 1, if ``guarded``, raises ConvergenceError where a component's
    rounding bound ``_GUARD`` eps h sum_j |d^k g(s_j)| s_j (|T_{s_j}| +
    |T_inf|), over the semigroup's nodes (h the rule's last step), exceeds
    max(tol, 64 eps |value|).
    """
    limit = None
    guard = guarded and k >= 1
    # the nodes, sum_j |d^k g| s_j |T_{s_j}| and sum_j |d^k g| s_j
    nodes, on_values, on_limit = [], 0.0, 0.0

    def integrand(s):
        nonlocal limit, on_values, on_limit
        # eval_batch's per-node retry passes scalar nodes
        sv = np.atleast_1d(s)
        g = _stable_weight_factor(t, sv, k)
        live = (g != 0.0) & (sv < s_far)
        if limit is None:
            # the first call, the first level's, brings T_inf as its last row
            terms = semigroup(np.append(sv[live], np.inf))
            limit, terms = terms[-1].copy(), terms[:-1]
        elif live.any():
            terms = semigroup(sv[live])
        else:
            terms = np.empty((0,) + limit.shape)
        g = g[live]
        if guard:
            weight = np.abs(g * sv[live])
            nodes.append(sv)
            on_values = on_values + weight @ np.abs(terms).reshape(len(weight), limit.size)
            on_limit += weight.sum()
        terms -= limit
        terms *= g.reshape((-1,) + (1,) * limit.ndim)
        if live.all():
            return terms.reshape(np.shape(s) + limit.shape)
        # the other nodes' terms are exactly 0
        v = np.zeros(sv.shape + limit.shape)
        v[live] = terms
        return v.reshape(np.shape(s) + limit.shape)

    vals = np.asarray(integrate_halfline(integrand, tol=tol, rapid=True))
    if k == 0:
        return vals + limit
    if guard:
        # the rule's nodes lie h j apart in log s, every level's among them
        h = np.min(np.diff(np.sort(np.log(np.concatenate(nodes)))))
        bound = _GUARD * np.finfo(float).eps * h * (
            np.reshape(on_values, limit.shape) + on_limit * np.abs(limit))
        if np.any(bound > np.maximum(tol, _ROUNDING * np.abs(vals))):
            raise ConvergenceError(
                f"the s-integral's float64 rounding reaches {np.max(bound):.3g}, above tol "
                f"{tol:g}: d^k g/dt^k (T_s - T_inf) cancels at k = {k}, t = {t:g}",
                estimate=vals, error_bound=math.inf)
    return vals


# ----------------------------------------------------------------------------
# Truncated y-grids
# ----------------------------------------------------------------------------

def _min_sigma(t: float) -> float:
    s_min = t * t / (4.0 * _V_CUT)
    return math.sqrt(0.5 * -math.expm1(-2.0 * s_min))


class _Grading(NamedTuple):
    """Widths of graded y-panels: the innermost in spike widths at the
    smallest contributing s (``_min_sigma``), and the factor each next one
    grows by, up to width 1."""

    inner: float
    growth: float


# The kernel route contracts M_s(x, y) (f(y) - f(x)), which vanishes at the
# spike's centre y = x, so its panels may start one spike width wide and
# double.  ``kernel_derivative_l1`` integrates |d^k p(t, x, y)| itself, with
# kinks at its sign changes near x, and keeps the finer grading.  Both stop
# at width 1, which f needs away from x: width 2 took the route on tanh(5x)
# at tol 1e-10 from 1.5e-8 to 2.2e-5 off at points far from its step
_APPLY_GRADING = _Grading(1.0, 2.0)
_L1_GRADING = _Grading(0.5, 1.5)


def _graded_panels(t: float, c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   grading: _Grading):
    """Gauss-Legendre nodes and weights (X, N) on [lo_i, hi_i], graded toward
    c_i, one row per point on one axis: panel widths start at
    ``grading.inner`` spike widths at the smallest contributing s and grow by
    ``grading.growth`` up to 1 in every row, clipped at lo_i and hi_i;
    shorter rows end in zero-width panels at hi_i.
    """
    inner = grading.inner * _min_sigma(t)
    ramp = np.full(1 + math.ceil(-math.log(inner, grading.growth)), grading.growth)
    ramp[0] = inner
    span = float(np.max(np.maximum(hi - c, c - lo)))
    steps = np.ones((c.size, 1 + ramp.size + math.ceil(span)))
    steps[:, 0] = c
    steps[:, 1:1 + ramp.size] = np.minimum(np.multiply.accumulate(ramp), 1.0)
    right = np.minimum(np.cumsum(steps, axis=1), hi[:, None])
    steps[:, 1:] *= -1.0
    left = np.maximum(np.cumsum(steps, axis=1), lo[:, None])
    breaks = np.concatenate([left[:, :0:-1], right], axis=1)
    # drop each row's leading repeats of lo_i; trailing ones of hi_i pad it
    at_lo = np.count_nonzero(breaks == lo[:, None], axis=1)
    at_hi = np.count_nonzero(breaks == hi[:, None], axis=1)
    count = breaks.shape[1] + 2 - at_lo - at_hi
    cols = np.minimum(at_lo[:, None] - 1 + np.arange(count.max()), breaks.shape[1] - 1)
    return gauss_legendre_panels(np.take_along_axis(breaks, cols, axis=1))


def _along(v: np.ndarray, a: int, d: int) -> np.ndarray:
    """Axis-a values (X, N_a) shaped to broadcast against (X, N_1, ..., N_d)."""
    return v.reshape((v.shape[0],) + (1,) * a + (-1,) + (1,) * (d - 1 - a))


def _contraction_operands(t: float, pts: np.ndarray, func):
    """The per-point graded y-grids as ``_contract`` takes them: per axis the
    offsets y_a - x_a (X, N_a), w (F - f(x)) (X, N_1, ..., N_d) with every
    axis's weights multiplied in, and f at the points.  Point i's grid is
    graded toward x_i (``_APPLY_GRADING``) on [-hypot(min(x_ia, 0), 8),
    hypot(max(x_ia, 0), 8)]; ``func`` runs once, on the nodes of nonzero
    weight point by point in row-major order, then at the points.
    """
    X, d = pts.shape
    axes = [_graded_panels(t, c, -np.hypot(np.minimum(c, 0.0), _Y_MARGIN),
                           np.hypot(np.maximum(c, 0.0), _Y_MARGIN), _APPLY_GRADING)
            for c in pts.T]
    shape = (X,) + tuple(y.shape[1] for y, _ in axes)
    used = np.ones(shape, dtype=bool)
    for a, (_, w) in enumerate(axes):
        used &= _along(w, a, d) > 0
    nodes = np.stack([np.broadcast_to(_along(y, a, d), shape)[used]
                      for a, (y, _) in enumerate(axes)], axis=-1)
    vals = eval_batch(func, np.concatenate([nodes, pts]))
    fx = vals[-X:]
    WF = np.zeros(shape)
    WF[used] = vals[:-X]
    WF -= fx.reshape((-1,) + (1,) * d)
    for a, (y, w) in enumerate(axes):
        WF *= _along(w, a, d)
        y -= pts[:, a:a + 1]
    return [y for y, _ in axes], WF, fx


# ----------------------------------------------------------------------------
# Separable Mehler contraction
# ----------------------------------------------------------------------------

def _contract(s: np.ndarray, pts: np.ndarray, offsets, WF: np.ndarray) -> np.ndarray:
    """Sum over a tensor y-grid of M_s(x, y) w(y) F(x; y), shape (S, X).

    The Mehler kernel is a product of 1-d kernels, so the sum is d 1-d
    contractions of ``WF`` = w F (X, N_1, ..., N_d) with exp(-(c - m)^2 /
    (1 - r^2)), r = e^{-s}, c = y_a - x_a (``offsets[a]``, (X, N_a)) and
    m = (r - 1) x_a, r - 1 as expm1(-s): O(N d) exponentials per s-node and
    point.  Per block and axis the exponents are one product of (block, sb, 3)
    coefficients with the rows (-c^2, c, 1), raised to ``_EXP_FLOOR``; the
    normaliser (pi (1 - r^2))^{-d/2} multiplies the sums.  The rows count
    against ``_BLOCK_VALUES`` per point, the largest axis's exponents and the
    partial sum after the first axis per (s-node, point).
    """
    r_minus_1 = np.expm1(-s)
    one_minus_r2 = -np.expm1(-2.0 * s)
    X, d = pts.shape
    sizes = [c.shape[1] for c in offsets]
    inv = 1.0 / one_minus_r2
    xb, sb = _blocks(X, 3 * sum(sizes), max(sizes) + math.prod(sizes[1:]))
    out = np.empty((inv.size, X))
    for lo in range(0, X, xb):
        blk = slice(lo, lo + xb)
        rows = []
        for c in offsets:
            # (-c^2, c, 1) in place: a stack adds ~0.9 MB to the nested route's peak
            row = np.empty((c[blk].shape[0], 3, c.shape[1]))
            np.multiply(c[blk], c[blk], out=row[:, 0])
            np.negative(row[:, 0], out=row[:, 0])
            row[:, 1] = c[blk]
            row[:, 2] = 1.0
            rows.append(row)
        for so in range(0, inv.size, sb):
            sl = slice(so, so + sb)
            acc = WF[blk].reshape(len(pts[blk]), 1, -1)
            # the (block, sb, 3) exponent coefficients (1, 2m, -m^2) / (1 - r^2)
            coef = np.empty((len(acc), inv[sl].size, 3))
            coef[..., 0] = inv[sl]
            for a, row in enumerate(rows):
                m = np.multiply.outer(pts[blk, a], r_minus_1[sl])        # (block, sb)
                np.multiply(2.0 * inv[sl], m, out=coef[..., 1])
                np.multiply(-inv[sl] * m, m, out=coef[..., 2])
                factor = _floored_exp(coef @ row)[:, :, None, :]       # (block, sb, 1, N_a)
                acc = (factor @ acc.reshape(acc.shape[:2] + (row.shape[-1], -1)))[:, :, 0, :]
            out[sl, blk] = acc[:, :, 0].T
    out *= (math.pi * one_minus_r2[:, None]) ** (-0.5 * d)
    return out


# ----------------------------------------------------------------------------
# Pointwise callables
# ----------------------------------------------------------------------------

def _callable(f, d: int):
    """``f`` as a pointwise callable and its dimension; an expansion is
    wrapped and brings its own."""
    if isinstance(f, HermiteExpansion):
        return as_function(f), f.dimension
    return f, d


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
    func, dim = _callable(f, d)
    s = np.array([q.t])
    return pointwise(dim, lambda pts: _mehler_gauss_hermite(func, s, pts)[0])


# ----------------------------------------------------------------------------
# Poisson-Hermite kernel p(t, x, y) and its t-derivatives
# ----------------------------------------------------------------------------

def _ph_kernel_payload(t: float, X: np.ndarray, Y: np.ndarray, d: int,
                       k: int, tol: float) -> np.ndarray:
    """∫ d^k/dt^k g(t, s) mehler(s, x_i, y_i) ds for the (P, d) point pairs
    (X_i, Y_i), as one s-integral with a payload component per pair.  The
    kernel values are formed per block of s-nodes and pairs, whose
    coordinates of r x and y - r x count against ``_BLOCK_VALUES``."""
    P = X.shape[0]

    def mehler(s):
        out = np.empty((s.size, P))
        pb, sb = _blocks(P, 0, 2 * d)
        for lo in range(0, P, pb):
            for so in range(0, s.size, sb):
                out[so:so + sb, lo:lo + pb] = _floored_exp(_mehler_log(
                    s[so:so + sb, None], X[None, lo:lo + pb], Y[None, lo:lo + pb], d))
        return out

    return _subordinate(t, k, mehler, tol, guarded=False)  # see _check_kernel_order


def _ph_kernel_values(t: float, x, y, d: int, k: int, tol: float):
    """d^k/dt^k p(t, x, y) on broadcast point batches (k = 0: the kernel)."""
    _check_time(t)
    _check_kernel_order(k)
    return pointwise(d, lambda X, Y: _ph_kernel_payload(t, X, Y, d, k, tol))(x, y)


def ph_kernel(t: float, x, y, tol: float = 1e-9, d: int = 1):
    """Poisson-Hermite kernel p(t, x, y) by subordination quadrature."""
    return _ph_kernel_values(t, x, y, d, 0, tol)


def ph_kernel_time_derivative(t: float, x, y, k: int, tol: float = 1e-9, d: int = 1):
    """d^k/dt^k of p(t, x, y) for 1 <= k <= 3 (differentiation under the
    integral sign; orders above 3 raise NotImplementedError, see
    ``_check_kernel_order``)."""
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    return _ph_kernel_values(t, x, y, d, k, tol)


# ----------------------------------------------------------------------------
# Poisson-Hermite semigroup
# ----------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _subordination_multiplier(t: float, levels: tuple, k: int, tol: float) -> np.ndarray:
    """lambda_n(t) = ∫_0^infty e^{-n s} d^k/dt^k g(t, s) ds (equals
    (-sqrt(n))^k e^{-sqrt(n) t}) for every n in ``levels``, as one read-only
    array.

    One s-integral whose payload holds T_s on each level; its stopping rule
    holds every level to ``tol``, and its truncation is the union of theirs.
    """
    n = np.asarray(levels, dtype=float)

    def on_levels(s):
        # e^{-n s}; on level 0 it is 1 at every s, s = inf included
        return np.exp(np.multiply.outer(-s, n, out=np.zeros((s.size, n.size)), where=n > 0))

    out = _subordinate(t, k, on_levels, tol)
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
    subordination : expansion -> expansion via one s-integral over its levels,
                    callable -> callable via Gauss-Hermite evaluation of T_s
                    (accurate for smooth f)
    kernel        : callable (or wrapped expansion) -> callable via p(t, x, y)
                    quadrature on a graded truncated y-grid.
    Every route takes every integer order k; at k >= 1 the s-integral raises
    ConvergenceError where its rounding exceeds tol (``_subordinate``).
    """
    t = q.t
    k = q.derivative_order
    if q.method == "spectral":
        if not isinstance(f, HermiteExpansion):
            raise ValueError("the spectral method requires a HermiteExpansion input")
        return scale_by_level(f, lambda n: ph_symbol(t, n, k))

    if q.method == "subordination":
        if isinstance(f, HermiteExpansion):
            return scale_by_level(
                f, lambda n: _subordination_multiplier(t, tuple(n.tolist()), k, tol))
        return pointwise(d, lambda pts: _subordinate(
            t, k, lambda s: _mehler_gauss_hermite(f, s, pts), tol, _gauss_hermite_s_far(pts)))

    # kernel method
    func, dim = _callable(f, d)

    def kernel_values(pts):
        offsets, WF, fx = _contraction_operands(t, pts, func)
        # Fubini: the y-quadrature runs inside the s-integrand, so the error
        # control acts on the values d^k/dt^k P_t f(x) themselves.  M_s(x, .)
        # has unit mass, so P_t f(x) = f(x) + ∫ p(t, x, y) (f(y) - f(x)) dy
        # and its t-derivatives have no f(x) term
        vals = _subordinate(t, k, lambda s: _contract(s, pts, offsets, WF), tol, _CONTRACT_S_FAR)
        return vals + fx if k == 0 else vals

    return pointwise(dim, kernel_values)


@lru_cache(maxsize=None)
def _weight_mass_constant(k: int) -> float:
    """C_k = t^k ∫ |d^k/dt^k g(t, s)| ds in closed form, for an int k >= 1.

    With h = e^{-t^2/4s} / sqrt(pi s), g = -∂_t h and ∂_s h = ∂_t^2 h, so
    d^k g/dt^k = ∂_s F for F = ∂_t^{k-2} g (-h = -2s g / t for k = 1), which
    vanishes at s = 0 and inf.  At t = 1, C_k is the sum of |F(b) - F(a)|
    over the pieces cut at s = 1/4z^2, z the positive zeros of H_{k+1}.
    """
    z = np.polynomial.hermite.hermgauss(k + 1)[0]
    s = 0.25 / z[z > 0.0] ** 2
    F = _stable_weight_factor(1.0, s, k - 2) if k > 1 else -2.0 * s * _stable_weight_factor(1.0, s, 0)
    return float(np.sum(np.abs(np.diff(F, prepend=0.0, append=0.0))))


def derivative_weight_mass(t: float, k: int) -> float:
    """∫ |d^k/dt^k g(t, s)| ds = C_k / t^k for an integer k >= 1: the scalar
    majorant of the kernel-derivative L^1 norm obtained by moving the
    absolute value inside the s-integral (the y-mass of the Gaussian factor
    is 1).  C_1 = 4/sqrt(2 pi e) <= 2, C_2 = 1.850..., C_3 = 6.144...,
    C_4 = 29.87... (``_weight_mass_constant``).
    """
    _check_time(t)
    _check_integer_order(k)
    if k < 1:
        raise ValueError("derivative weight mass needs an order k >= 1")
    return _weight_mass_constant(int(k)) / t ** k


def kernel_derivative_l1(t: float, x: float, k: int, tol: float = 1e-8) -> KernelL1:
    """∫ |d^k/dt^k p(t, x, y)| dy over the truncated 1-d domain |y| <= R,
    R = 8 + 2|x|.

    The reported tail bound dominates the discarded |y| > R mass:
    ∫_{|y|>R} mehler(s, x, y) dy <= erfc(R - |x|) uniformly in s, times the
    total |.|-mass of the k-th derivative of the subordination weight.
    """
    mass = derivative_weight_mass(t, k)  # checks t and k >= 1
    if k > 3:  # see _check_kernel_order
        raise ValueError("kernel_derivative_l1 supports 1 <= k <= 3")
    x = as_points(x, 1).item()
    R = _Y_MARGIN + 2.0 * abs(x)
    (y,), (wy,) = _graded_panels(t, np.array([x]), np.array([-R]), np.array([R]), _L1_GRADING)
    vals = _ph_kernel_payload(t, np.full((y.size, 1), x), y[:, None], 1, k, tol)
    return KernelL1(value=float(np.dot(wy, np.abs(vals))), tail_bound=mass * math.erfc(R - abs(x)))
