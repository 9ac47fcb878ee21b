"""Quadrature against the Gaussian measure and on semi-infinite intervals.

Two workhorses:

* tensorized Gauss-Hermite rules for integrals against
  dgamma(x) = e^{-|x|^2} / pi^{d/2} dx, and
* the trapezoid rule with step halving for integrands on (0, oo), in one of
  two variables.  Integrands such as s^{beta-1} e^{-cs}, analytic on (0, oo)
  but singular or slowly decaying on the raw axis, take the double-
  exponential map s = exp((pi/2) sinh tau), which makes them decay
  double-exponentially in tau.  Integrands that already decay double-
  exponentially in u = log s at both ends, such as e^{-t^2/4s} (T_s - T_inf),
  take the plain map s = e^u (``rapid=True``): the sinh map would compress
  them a second time and narrow their strip of analyticity where the mass
  sits, so they would need a finer step.  Either way the rule converges like
  exp(-c/h).  Each map is one ``_HalflineMap`` record, ``_EXP_SINH`` or
  ``_LOG``, which carries its step, its reach and its negligibility factor;
  one loop runs on either.

All routines are pure; rules are immutable and safe to share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, EvaluationError

SQRT_PI = math.sqrt(math.pi)

# 15-point Gauss-Legendre local rule of the composite panels.
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)

# Two levels that agree to this multiple of eps times the sum have reached
# float64 rounding; a change this small against the absolute mass is noise.
# The geometric acceptance test also needs this much of the absolute mass to
# stay below tol: rounding noise can shrink from level to level as well, and
# its "tail" would then pass for convergence where cancellation keeps tol out
# of reach.
_ROUNDING = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a rule for ∫ e^{-x^2} f(x) dx."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.shape != weights.shape:
            raise ValueError("nodes and weights must have the same length")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@lru_cache(maxsize=32)
def gauss_hermite_rule(m: int) -> QuadratureRule:
    """Gauss-Hermite rule with ``m`` nodes for ∫_R e^{-x^2} f(x) dx.

    Deterministic for fixed ``m``; exact for polynomials of degree <= 2m-1.
    Cached: the rule's arrays are read-only, so callers share one rule.
    """
    if m < 1:
        raise ValueError("node count m must be >= 1")
    nodes, weights = np.polynomial.hermite.hermgauss(m)
    return QuadratureRule(nodes=nodes, weights=weights)


def default_rule() -> QuadratureRule:
    return gauss_hermite_rule(64)


def tensor_grid(axes) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of per-axis ``(nodes, weights)`` pairs.

    Returns points of shape (n, d) in row-major order and product weights
    (n,), multiplied axis by axis starting from axis 0.
    """
    nodes, weights = zip(*axes)
    pts = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=-1)
    w = np.ones(pts.shape[0])
    for g in np.meshgrid(*weights, indexing="ij"):
        w *= g.ravel()
    return pts, w


_TENSOR_CACHE: dict = {}


def tensor_nodes(rule: QuadratureRule, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorize a 1-d rule: points of shape (m^d, d) and product weights (m^d,)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > 3:
        raise ValueError("tensor grids are capped at d <= 3")
    key = (rule.nodes.tobytes(), rule.weights.tobytes(), d)
    hit = _TENSOR_CACHE.get(key)
    if hit is not None:
        return hit
    pts, w = tensor_grid([(rule.nodes, rule.weights)] * d)
    pts.setflags(write=False)
    w.setflags(write=False)
    if len(_TENSOR_CACHE) > 32:
        _TENSOR_CACHE.clear()
    _TENSOR_CACHE[key] = (pts, w)
    return pts, w


def eval_batch(f, x: np.ndarray) -> np.ndarray:
    """Evaluate a user callable on a batch of n nodes: the batch contract.

    ``x`` holds n points of shape (n, d) or n scalar nodes of shape (n,).
    On points ``f`` must return shape (n,); on scalar nodes it may also
    return a payload of shape (n, ...), as half-line integrands do.  There is
    one fallback: a callable that rejects the batch with TypeError or
    ValueError, or answers it with a single number, is written for one node
    and is called once per node instead (a constant callable too); no value
    is ever broadcast.  Complex values raise ValueError naming their dtype,
    any other result shape raises ValueError naming it, and a non-finite
    value raises EvaluationError carrying its node.
    """
    n = x.shape[0]
    try:
        vals = np.asarray(f(x))
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape == ():
        vals = np.asarray([f(x[i]) for i in range(n)])
    if np.iscomplexobj(vals):
        raise ValueError(f"callable returned {vals.dtype} values; expected real ones")
    vals = np.asarray(vals, dtype=float)
    if vals.shape[:1] != (n,) or (x.ndim > 1 and vals.ndim > 1):
        expected = f"({n},)" if x.ndim > 1 else f"({n},) or ({n}, ...)"
        raise ValueError(f"callable returned shape {vals.shape} for {n} nodes, "
                         f"expected {expected}")
    if not np.isfinite(vals).all():
        node = x[int(np.argmin(np.isfinite(vals).reshape(n, -1).all(axis=1)))]
        raise EvaluationError(f"callable is not finite at node {np.asarray(node).tolist()}",
                              node=node)
    return vals


def integrate_gaussian(f, d: int, rule: QuadratureRule | None = None) -> float:
    """Approximate ∫_{R^d} f dgamma by the tensorized Gauss-Hermite rule.

    ``f`` follows the batch contract of ``eval_batch``: points of shape
    (n, d) in, shape (n,) out.
    """
    if rule is None:
        rule = default_rule()
    pts, w = tensor_nodes(rule, d)
    return float(w @ eval_batch(f, pts)) / math.pi ** (d / 2.0)


# ----------------------------------------------------------------------------
# Composite Gauss-Legendre panels (fixed grids on finite intervals)
# ----------------------------------------------------------------------------

def gauss_legendre_panels(breakpoints) -> tuple[np.ndarray, np.ndarray]:
    """15-point Gauss-Legendre nodes/weights on each panel of a partition.

    ``breakpoints`` is one partition (P + 1,) or one per row (X, P + 1); the
    nodes and weights have shape (15 P,) or (X, 15 P).  A zero-width panel,
    as at the end of a row padded with repeats of its last breakpoint, gets
    15 nodes there with weight 0.
    """
    b = np.asarray(breakpoints, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] < 2 or not (
            (np.diff(b) >= 0).all() and (b[..., -1] > b[..., 0]).all()):
        raise ValueError("each partition must be non-decreasing with >= 2 breakpoints "
                         "and positive length")
    half = 0.5 * np.diff(b)
    mid = 0.5 * (b[..., :-1] + b[..., 1:])
    nodes = (mid[..., None] + half[..., None] * _GL15_X).reshape(b.shape[:-1] + (-1,))
    weights = (half[..., None] * _GL15_W).reshape(nodes.shape)
    return nodes, weights


# ----------------------------------------------------------------------------
# Trapezoid rule over (0, oo) in tau (exp-sinh map) or in log s
# ----------------------------------------------------------------------------

class _HalflineMap(NamedTuple):
    """A change of variable s = s(u) for the half-line rule, and its walk.

    ``var`` names u in messages, ``step`` is the first step h, ``first`` the
    |u| the first level always covers, ``cap`` the bound on |u|, ``quiet``
    the factor of tol / h below which a term is negligible, and ``s_of``
    maps nodes u to (s, ds/du).
    """

    var: str
    step: float
    first: float
    cap: float
    quiet: float
    s_of: Callable


def _exp_sinh(tau):
    s = np.exp(0.5 * math.pi * np.sinh(tau))
    return s, 0.5 * math.pi * np.cosh(tau) * s


def _exp(u):
    s = np.exp(u)
    return s, s


# Exp-sinh: the first level covers |tau| <= 3, s = e^{+-15.7} (integrands
# whose mass sits away from s = 1, such as e^{-ns} g(t, s) for large n, are
# seen there), and at the cap s = exp((pi/2) sinh 6.5) ~ e^{+-522} stays
# inside float64.  Log: the first level covers s = e^{+-16}, which contains
# the exp-sinh first level, and the cap is the same s-range; the tails of the
# integrands it serves, triple-exponential in tau, are only double-
# exponential in log s, so a term is negligible 1e4 times further down.
_EXP_SINH = _HalflineMap("tau", 0.5, 3.0, 6.5, 1e-2, _exp_sinh)
_LOG = _HalflineMap("u", 1.0, 16.0, 522.0, 1e-6, _exp)

# halvings one integral may spend, on either map
_HALVINGS = 8


def _halfline_terms(g, u: np.ndarray, m: _HalflineMap) -> np.ndarray:
    """g(s) ds/du at the nodes u of the map ``m``, every node in one call of g."""
    s, ds = m.s_of(u)
    vals = eval_batch(g, s)
    return vals * ds.reshape(ds.shape + (1,) * (vals.ndim - 1))


def _peaks(terms: np.ndarray) -> np.ndarray:
    """Each node's max-abs term over its payload."""
    return np.abs(terms).reshape(len(terms), -1).max(axis=1)


def _flank(new: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """``rows`` between the first ``n`` of ``new``, which run outward on the
    left, and the rest of ``new``, which run outward on the right."""
    return np.concatenate([new[:n][::-1], rows, new[n:]])


def _max_abs(v) -> float:
    return float(np.max(np.abs(v)))


def _unconverged(message: str, total) -> ConvergenceError:
    return ConvergenceError(message, estimate=_maybe_scalar(total), error_bound=math.inf)


def integrate_halfline(g, tol: float = 1e-10, *, rapid: bool = False):
    """Integral of ``g`` over (0, oo) by the trapezoid rule with step halving.

    By default it runs on the map ``_EXP_SINH``: it substitutes
    s = exp((pi/2) sinh tau), which makes integrands that are analytic on
    (0, oo) and decay like a power of s (or faster) at both ends decay
    double-exponentially in tau, and sums g(s) ds/dtau at the nodes
    tau = j h.  With ``rapid=True`` it runs on the map ``_LOG``: the variable
    is u = log s and the terms g(s) s at u = j h, for integrands that already
    decay double-exponentially in log s at both ends and are analytic in a
    strip around the real u-axis.

    The first step sets the truncation: it takes every node with
    |tau| <= 3 at h = 0.5 (|u| <= 16 at h = 1) and walks on, four nodes a
    side per step, until the two outermost terms on each side are
    negligible, below 1e-2 tol / h in tau and 1e-6 tol / h in log s (at the
    cap, the outermost alone); each side ends one node past its outermost
    term above that.  The step then halves, each level adding the midpoints
    of the last.  From the second halving on, with D_L = |S_L - S_{L-1}| per
    payload component, the level's sum S_L is returned once every component
    passes one of two tests:

    * the levels agree, D_L <= max(tol, 64 eps max|S_L|); or
    * they contract geometrically: rho = D_L / D_{L-1} <= 1/2, the tail
      D_L rho / (1 - rho) of the corrections still to come is <= tol, and so
      is the float64 rounding 64 eps h sum |terms| of the component's
      absolute mass.  The trapezoid rule converges geometrically on
      integrands analytic in a strip, which saves the last halving on most
      integrals; the mass guard keeps rounding noise, which may contract
      too, from passing for convergence.

    The first halving is never accepted.  ``g`` follows the batch
    contract of ``eval_batch`` and may return a payload of shape (n, ...),
    whose components take the tests above one by one; the stall check below
    takes the max over them.  It gets every
    new node of a step in one call: the first level, each step of the walk
    (the left side's new nodes outward, then the right side's) and each
    halving level, so an integrand whose payload is large bounds its own
    temporaries.  The first two halvings share a call, the first's new
    nodes ascending and then the second's, since the second always follows
    the first; each keeps its own sum and tests, so every error below comes
    at the same level as with a call per level (a non-finite value at a
    node of the second comes one call earlier).

    Raises ConvergenceError, with the last level's sum as estimate and an
    error bound of inf, when the step has halved 8 times (at most
    26 * 2^8 + 1 = 6657 nodes; in log s, 1044 * 2^8 + 1 = 267265), when the
    terms are not negligible at the cap |tau| = 6.5 (|u| = 522), where s
    nears the ends of float64 (the integral may diverge), or when two levels
    differ only by the float64 rounding of the absolute mass h sum |terms|,
    which cancellation leaves out of reach of tol.
    """
    # ``not tol > 0`` also rejects nan, which no level could ever meet
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    m = _LOG if rapid else _EXP_SINH
    h = m.step
    cap = round(m.cap / h)
    quiet = m.quiet * tol / h

    def grows(reach, outer, inner):
        # a side walks on while its two outermost terms are not both
        # negligible (at the cap, the outermost alone)
        return not (outer <= quiet and (reach == cap or inner <= quiet))

    # first level: every node with |u| <= m.first, then the walk; the rows
    # of ``terms`` and ``peak`` run over the nodes j = -lo..hi
    lo = hi = round(m.first / h)
    terms = _halfline_terms(g, h * np.arange(-lo, hi + 1.0), m)
    peak = _peaks(terms)
    while True:
        grow_lo, grow_hi = grows(lo, peak[0], peak[1]), grows(hi, peak[-1], peak[-2])
        if not (grow_lo or grow_hi):
            break
        if (grow_lo and lo == cap) or (grow_hi and hi == cap):
            raise _unconverged(f"half-line terms are not negligible at |{m.var}| = {m.cap}; "
                               f"the integral may diverge", h * sum(terms))
        new_lo = min(lo + 4, cap) if grow_lo else lo
        new_hi = min(hi + 4, cap) if grow_hi else hi
        new = _halfline_terms(g, h * np.concatenate([-np.arange(lo + 1, new_lo + 1.0),
                                                     np.arange(hi + 1, new_hi + 1.0)]), m)
        terms = _flank(new, new_lo - lo, terms)
        peak = _flank(_peaks(new), new_lo - lo, peak)
        lo, hi = new_lo, new_hi
    # each side ends one node past its outermost term that is not negligible
    loud = np.flatnonzero(peak > quiet) - lo
    left, right = 1 - int(loud.min(initial=0)), 1 + int(loud.max(initial=0))

    def odd(step, level):
        # a level's new nodes: the odd multiples of its step inside the first
        # level's range
        return step * np.arange(1 - (left << level), right << level, 2.0)

    # the kept rows summed in order, as a Python sum would; ``.sum()`` sums
    # 1-d payloads pairwise
    kept = terms[lo - left:lo + right + 1]
    total = h * np.cumsum(kept, axis=0)[-1]
    mass = h * np.cumsum(np.abs(kept), axis=0)[-1]
    diff = None
    for level in range(1, _HALVINGS + 1):
        h *= 0.5
        if level == 1:
            # level 1 is never accepted, so level 2's nodes come in its call
            u = odd(h, 1)
            both = _halfline_terms(g, np.concatenate([u, odd(0.5 * h, 2)]), m)
            new, ahead = both[:u.size], both[u.size:]
        elif level == 2:
            new = ahead
        else:
            new = _halfline_terms(g, odd(h, level), m)
        prev, total = total, 0.5 * total + h * new.sum(axis=0)
        mass = 0.5 * mass + h * np.abs(new).sum(axis=0)
        last, diff = diff, np.abs(total - prev)
        if level == 1:
            # a feature narrower than the first step meets one node there,
            # and the sums at the first two steps can then agree by chance
            continue
        change = _max_abs(diff)
        # each component passes if the levels agree, or if its corrections
        # at least halve and their geometric tail D^2 / (D_last - D) meets
        # tol, with the rounding of its absolute mass below tol too
        geometric = ((2.0 * diff <= last) & (diff * diff <= tol * (last - diff))
                     & (_ROUNDING * mass <= tol))
        if np.all((diff <= max(tol, _ROUNDING * _max_abs(total))) | geometric):
            return _maybe_scalar(total)
        if change <= _ROUNDING * _max_abs(mass):
            raise _unconverged(
                f"half-line levels differ by {change:.3g}, the float64 rounding of "
                f"the integrand's absolute mass {_max_abs(mass):.3g}: cancellation "
                f"keeps tol {tol:g} out of reach", total)
    raise _unconverged(f"half-line step halved {_HALVINGS} times without two levels "
                       f"agreeing to tol {tol:g}", total)


def _maybe_scalar(value):
    arr = np.asarray(value)
    if arr.shape == ():
        return float(arr)
    return arr
