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
                         -hypot(min(x_i, 0), 8) <= y_i <= hypot(max(x_i, 0), 8),
                         where e^{-s} x_i +- 8 sqrt(1 - e^{-2s}) reach over
                         s); for T_t, Mehler's formula (below),
  * ``subordination`` -- s-integral of T_s against d^k g/dt^k (t, s),
                         k <= 3, T_s by Mehler's formula.

Mehler's formula writes T_s as a Gaussian average,

    T_s f(x) = ∫ f(e^{-s} x + sqrt(1 - e^{-2s}) y) dgamma(y),

which the 64-node Gauss-Hermite tensor rule evaluates with no truncation and
exactly for polynomials of degree < 128 in each variable.  ``ou_apply`` and
``ph_apply`` build the rule once, when they make the operator.

Every s-integral against d^k g/dt^k runs against T_s - T_inf, where T_inf f
is the gamma-mean of f: the integrand then decays like e^{-s} instead of
s^{-3/2}.  T_inf comes back in closed form, since ∫ g ds = 1 and
∫ d^k g/dt^k ds = 0 for k >= 1.  The term is exactly 0 where d^k g
underflows to 0 and past a route's ``s_far``, where the float64 T_s is
T_inf bit for bit; ``_subordinate`` runs the semigroup at neither.  The
integral runs in u = log s (``integrate_halfline(rapid=True)``):
e^{-t^2/4s} and e^{-s} vanish double-exponentially in u at both ends, so the
trapezoid rule in u needs no further map, and it keeps the integrand's full
strip of analyticity |Im u| < pi/2 where the mass sits (s ~ t^2), which the
exp-sinh map would narrow at small t and high chaos levels.

The kernel route applies P_t (and its t-derivatives) as one
s-integral per call whose payload is the batch of values at the x-points:
by Fubini the y-quadrature runs inside the s-integrand, so the error control
acts on d^k/dt^k P_t f(x) itself.  It integrates f(y) - f(x) against the
kernel and adds f(x) back for k = 0: M_s(x, .) has unit mass, so the
integrand vanishes at the kernel's short-time spike and a constant comes
back exactly.  The batch's y-grids, graded toward the points, are built
together, one array per axis with a row per point whose end carries zero
weights; f is evaluated once per call, at the nodes of nonzero weight and
then at the points, and the weights are multiplied into F = f(y) - f(x)
once; only F and the offsets y - x stay.  At each s-node the Mehler
kernel, a product of 1-d kernels, is applied to F one axis at a time: per
point its exponents are one small matrix product, raised to
``_EXP_FLOOR``, and its normaliser multiplies the sums.  The pointwise
kernels ``ph_kernel`` / ``ph_kernel_time_derivative`` run one s-integral
per call whose payload is every (x, y) pair of the broadcast batches, with
the same exponent floor; the L^1 routine passes its one x through the same
payload, since it needs |p| pointwise in y, on finer panels
(``_L1_GRADING``): |p| has kinks at its sign changes near x.

The half-line rule passes every new s-node of a step in one call (the
first two halvings share one), and T_inf comes with the first; the
s-integrands block their temporaries over s-nodes and points within one
budget, ``_BLOCK_VALUES``.

Callables passed in follow the batch contract of ``quadrature.eval_batch``:
point batches of shape (n, d) in, shape (n,) out.  Every evaluator this
module returns, the ``ou_apply`` / ``ph_apply`` operators and the pointwise
kernels, keeps the point contract of ``hermite.pointwise``: a float for a
single point, an array of the batch shape otherwise, and ``ValueError`` for
a non-finite coordinate; the routes compute on (n, d) arrays only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hermite import HermiteExpansion, as_function, as_points, pointwise, scale_by_level
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

# y-grids reach this far past the Mehler centres r x, r = e^{-s}, in units of
# sqrt(1 - r^2) (std sqrt((1 - r^2) / 2) <= 1/sqrt 2): the dropped Gaussian
# mass is <= erfc(8) per side at every s.  Over s the ends r x +- 8 sqrt(1-r^2)
# reach -hypot(min(x, 0), 8) and hypot(max(x, 0), 8), the span of each axis
_Y_MARGIN = 8.0

# Mehler exponents are raised to this before ``exp`` in the kernel routes:
# numpy 2.4's exp is ~100 times slower on arguments in -745..-709 (subnormal
# results) and ~15 times slower below, and ~20% of the kernel route's
# exponents are below -745.  e^{-690} ~ 2e-300 stays a normal float after
# the weights multiply it in; each floored term adds at most
# e^{-690} (pi (1-r^2))^{-d/2} |w F| to a sum
_EXP_FLOOR = -690.0

# values per block of every temporary the s-integrands make (1 MiB of
# float64).  The half-line rule passes a whole level of s-nodes per call, so
# ``_mehler_gauss_hermite``, ``_contract`` and ``_ph_kernel_payload`` block
# over s-nodes as well as over points: no temporary grows with the size of a
# level, only the (S, ...) payload itself
_BLOCK_VALUES = 2 ** 17

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


def _check_time(t: float) -> None:
    if not 0 < t < math.inf:
        raise ValueError("time t must be positive and finite")


def _check_integer_order(k) -> None:
    if not float(k).is_integer():
        raise ValueError(f"derivative order {k} must be an integer")


def _check_kernel_order(k: int) -> None:
    _check_integer_order(k)
    if k > 3:
        raise NotImplementedError(
            "kernel time derivatives are implemented for k <= 3; use the "
            "spectral representation beyond that")


# ----------------------------------------------------------------------------
# T_s by Mehler's formula
# ----------------------------------------------------------------------------

def _blocks(points: int, per_point: int, per_pair: int) -> tuple:
    """Points and s-nodes per block: ``per_point`` values per point and
    ``per_pair`` per (s-node, point) pair stay within ``_BLOCK_VALUES``, with
    at least one of each.  The points come first, a power of two of them:
    BLAS sums the rows of a (block, n) @ (n,) product four at a time, so each
    point's sum is then the same at every block size."""
    fit = _BLOCK_VALUES // max(per_point, per_pair)
    xb = max(1, min(points, 1 << max(fit.bit_length() - 1, 0)))
    return xb, max(1, _BLOCK_VALUES // (xb * per_pair))


def _mehler_gauss_hermite(f, s: np.ndarray, pts: np.ndarray, nodes) -> np.ndarray:
    """T_s f at the points for each s, shape (S, X), by Mehler's formula

        T_s f(x) = ∫ f(e^{-s} x + sqrt(1 - e^{-2s}) y) dgamma(y)

    on the tensor Gauss-Hermite rule ``nodes`` (points (m^d, d), weights).
    ``f`` is evaluated once per block of s-nodes, points and rule nodes
    (all of them up to d = 2), on its (sb, block, ub) rule points: their d
    coordinates and f's values count against ``_BLOCK_VALUES``.
    """
    U, wu = nodes
    X, d = pts.shape
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


def _gauss_hermite_s_far(pts: np.ndarray, u: np.ndarray) -> float:
    """The s past which ``_mehler_gauss_hermite``'s rule points
    e^{-s} x + sqrt(1 - e^{-2s}) U at these points round to U, as at s = inf,
    for the tensor rule of the 1-d nodes ``u``: sigma rounds to 1 past s = 19
    (e^{-38} < 2^{-54}), and |e^{-s} x| stays below an eighth of the float
    spacing at the smallest |u|, within half a spacing of every coordinate."""
    tiny = np.spacing(np.min(np.abs(u))) / 8.0
    return max(19.0, math.log(max(float(np.max(np.abs(pts))), tiny) / tiny))


# ----------------------------------------------------------------------------
# Subordination: s-integrals against d^k/dt^k g(t, s)
# ----------------------------------------------------------------------------

def _subordinate(t: float, k: int, semigroup, tol: float, s_far: float = math.inf) -> np.ndarray:
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
    from a lone s = inf column in the last bits: BLAS may sum a batch of
    s-nodes in another order than a single one.
    """
    limit = None

    def integrand(s):
        nonlocal limit
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
        terms -= limit
        terms *= g[live].reshape((-1,) + (1,) * limit.ndim)
        if live.all():
            return terms.reshape(np.shape(s) + limit.shape)
        # the other nodes' terms are exactly 0
        v = np.zeros(sv.shape + limit.shape)
        v[live] = terms
        return v.reshape(np.shape(s) + limit.shape)

    vals = np.asarray(integrate_halfline(integrand, tol=tol, rapid=True))
    return vals + limit if k == 0 else vals


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
    c_i, one row per point on one axis.

    Panel widths start at ``grading.inner`` spike widths at the smallest
    contributing s, grow by ``grading.growth`` up to 1 away from c_i and are
    the same in every row: the breakpoints are c_i plus or minus their
    running sums, clipped at lo_i and hi_i.  Each row's panels come first;
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


def _ph_graded_grids(t: float, pts: np.ndarray, func):
    """Per-point graded y-grids, ``func`` on them and ``func`` at the points.

    Point i gets the tensor grid of its per-axis panels graded toward x_i
    (``_APPLY_GRADING``), on [-hypot(min(x_ia, 0), 8), hypot(max(x_ia, 0), 8)]
    (``_Y_MARGIN``); each axis is one (X, N_a) array whose rows end in zero
    weights.  ``func`` is evaluated once, on the nodes of nonzero weight,
    point by point in row-major order, and then at the points themselves;
    F is 0 elsewhere.
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
    F = np.zeros(shape)
    F[used] = vals[:-X]
    return axes, F, vals[-X:]


def _contraction_operands(t: float, pts: np.ndarray, func):
    """The graded grids as ``_contract`` takes them: per axis the
    offsets y_a - x_a (X, N_a), written over the nodes; w (F - f(x)) with
    every axis's weights w multiplied in; and f at the points.  The weights
    are dropped."""
    axes, F, fx = _ph_graded_grids(t, pts, func)
    F -= fx.reshape((-1,) + (1,) * pts.shape[1])
    for a, (y, w) in enumerate(axes):
        F *= _along(w, a, pts.shape[1])
        y -= pts[:, a:a + 1]
    return [y for y, _ in axes], F, fx


# ----------------------------------------------------------------------------
# Separable Mehler contraction
# ----------------------------------------------------------------------------

def _contract(s: np.ndarray, pts: np.ndarray, offsets, WF: np.ndarray) -> np.ndarray:
    """Sum over a tensor y-grid of M_s(x, y) w(y) F(x; y), shape (S, X).

    The d-dimensional Mehler kernel is the product of 1-d kernels, so the sum
    is d successive 1-d contractions of ``WF`` = w F (shape (X, N_1, ...,
    N_d)) with the factors exp(-(c - m)^2 / (1 - r^2)), r = e^{-s}, of the
    offsets c = y_a - x_a (``offsets[a]``, shape (X, N_a)) and m = (r - 1) x_a,
    with r - 1 as expm1(-s), exact to rounding where r rounds to 1:
    O(N d) exponentials per s-node and point instead of O(N^d).  At s = inf,
    r - 1 and 1 - r^2 are -1 and 1.

    Per block of points and s-nodes and per axis, the exponents are one
    product of (block, sb, 3) coefficients with the (block, 3, N_a) rows
    (-c^2, c, 1), raised to ``_EXP_FLOOR``; the normaliser
    (pi (1 - r^2))^{-d/2} multiplies the (S, X) sums.  The rows of every axis
    count against ``_BLOCK_VALUES`` per point, and per (s-node, point) the
    largest axis's exponents and the partial sum after the first axis.
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
            # (-c^2, c, 1) written in place: a stack of temporaries adds
            # ~0.9 MB to the peak RSS of the nested kernel route
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
    nodes = tensor_nodes(default_rule(), dim)
    return pointwise(dim, lambda pts: _mehler_gauss_hermite(func, s, pts, nodes)[0])


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

    return _subordinate(t, k, mehler, tol)


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
    integral sign; the k-fold factor is hardcoded)."""
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    return _ph_kernel_values(t, x, y, d, k, tol)


# ----------------------------------------------------------------------------
# Poisson-Hermite semigroup
# ----------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _subordination_multiplier(t: float, levels: tuple, k: int, tol: float) -> np.ndarray:
    """lambda_n(t) = ∫_0^infty e^{-n s} d^k/dt^k g(t, s) ds (equals
    (-sqrt(n))^k e^{-sqrt(n) t}) for every n in ``levels``, k <= 3, as one
    read-only array.

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
                    (accurate for smooth f); k <= 3
    kernel        : callable (or wrapped expansion) -> callable via p(t, x, y)
                    quadrature on a graded truncated y-grid; k <= 3.
    """
    t = q.t
    k = q.derivative_order
    if q.method == "spectral":
        if not isinstance(f, HermiteExpansion):
            raise ValueError("the spectral method requires a HermiteExpansion input")
        return scale_by_level(f, lambda n: ph_symbol(t, n, k))

    _check_kernel_order(k)
    if q.method == "subordination":
        if isinstance(f, HermiteExpansion):
            return scale_by_level(
                f, lambda n: _subordination_multiplier(t, tuple(n.tolist()), k, tol))
        nodes = tensor_nodes(default_rule(), d)
        return pointwise(d, lambda pts: _subordinate(
            t, k, lambda s: _mehler_gauss_hermite(f, s, pts, nodes), tol,
            _gauss_hermite_s_far(pts, default_rule().nodes)))

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
    _check_time(t)
    _check_integer_order(k)
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
    mass = derivative_weight_mass(t, k)  # checks t and k
    x = as_points(x, 1).item()
    R = _Y_MARGIN + 2.0 * abs(x)
    (y,), (wy,) = _graded_panels(t, np.array([x]), np.array([-R]), np.array([R]), _L1_GRADING)
    vals = _ph_kernel_payload(t, np.full((y.size, 1), x), y[:, None], 1, k, tol)
    return KernelL1(value=float(np.dot(wy, np.abs(vals))), tail_bound=mass * math.erfc(R - abs(x)))
