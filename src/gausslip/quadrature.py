"""Quadrature against the Gaussian measure and on semi-infinite intervals.

Two workhorses:

* tensorized Gauss-Hermite rules for integrals against
  dgamma(x) = e^{-|x|^2} / pi^{d/2} dx, and
* a deterministic adaptive panel integrator on a log-transformed axis for
  integrands on (0, oo) such as e^{-t^2/4s} s^{-3/2} or s^{beta-1} e^{-cs},
  which are smooth there but singular or slowly decaying on the raw axis.

All routines are pure; rules are immutable and safe to share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EvaluationError

SQRT_PI = math.sqrt(math.pi)

HALFLINE_TRANSFORMS = ("none", "inverse_square")

# 15-point Gauss-Legendre local rule used by every panel integrator here.
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)

# Hard cap for the log axis; e^{+-_LOG_CAP} stays inside float64 range.
_LOG_CAP = 700.0

# Half-line integrator: absolute error floor, and the bisections one integral
# may spend over all its intervals.
_HALFLINE_ABS_TOL = 1e-12
_HALFLINE_MAX_BISECTIONS = 4096

# A panel whose halves change it by no more than this multiple of eps times its
# magnitude is accepted: the rule has reached float64 rounding there.
_ROUNDING_FLOOR = 64.0 * np.finfo(float).eps


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


def gauss_hermite_rule(m: int) -> QuadratureRule:
    """Gauss-Hermite rule with ``m`` nodes for ∫_R e^{-x^2} f(x) dx.

    Deterministic for fixed ``m``; exact for polynomials of degree <= 2m-1.
    """
    if m < 1:
        raise ValueError("node count m must be >= 1")
    nodes, weights = np.polynomial.hermite.hermgauss(m)
    return QuadratureRule(nodes=nodes, weights=weights)


def default_rule(m: int = 64) -> QuadratureRule:
    return gauss_hermite_rule(m)


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
    return a payload of shape (n, ...), as half-line integrands do.  A scalar
    result is broadcast to every node.  A callable that rejects the batch with
    TypeError or ValueError is called once per node instead.  Any other
    result shape raises ValueError naming it, and a non-finite value raises
    EvaluationError carrying its node.
    """
    n = x.shape[0]
    try:
        vals = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        vals = np.asarray([f(x[i]) for i in range(n)], dtype=float)
    if vals.shape == ():
        vals = np.full(n, float(vals))
    elif vals.shape[:1] != (n,) or (x.ndim > 1 and vals.ndim > 1):
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
    """15-point Gauss-Legendre nodes/weights on each panel of a partition."""
    b = np.asarray(breakpoints, dtype=float)
    if b.ndim != 1 or b.size < 2 or np.any(np.diff(b) <= 0):
        raise ValueError("breakpoints must be strictly increasing with >= 2 entries")
    half = 0.5 * np.diff(b)
    mid = 0.5 * (b[:-1] + b[1:])
    nodes = (mid[:, None] + half[:, None] * _GL15_X).ravel()
    weights = (half[:, None] * _GL15_W).ravel()
    return nodes, weights


def uniform_breaks(lo: float, hi: float, max_width: float) -> np.ndarray:
    n = max(1, int(math.ceil((hi - lo) / max_width)))
    return np.linspace(lo, hi, n + 1)


def graded_breaks(lo: float, hi: float, center: float, inner: float,
                  growth: float = 1.5, max_width: float = 1.0) -> np.ndarray:
    """Panel breakpoints on [lo, hi] graded geometrically away from ``center``.

    Panel widths start at ``inner`` next to the center and grow by ``growth``
    up to ``max_width``; used for kernels with a near-singular spike.
    """
    if not lo <= center <= hi:
        center = min(max(center, lo), hi)
    pts = [center]
    w = inner
    x = center
    while x < hi:
        x = min(x + w, hi)
        pts.append(x)
        w = min(w * growth, max_width)
    w = inner
    x = center
    left = []
    while x > lo:
        x = max(x - w, lo)
        left.append(x)
        w = min(w * growth, max_width)
    return np.asarray(left[::-1] + pts)


# ----------------------------------------------------------------------------
# Adaptive integration over (0, oo) on the log axis
# ----------------------------------------------------------------------------

def _weight_payload(vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Multiply payload values (n, ...) by per-node weights (n,)."""
    return vals * w.reshape(w.shape + (1,) * (vals.ndim - 1))


def _gl15_panel(G, a: float, b: float):
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _GL15_X
    return h * np.tensordot(_GL15_W, G(x), axes=(0, 0))


def integrate_halfline(g, transform: str = "none", tol: float = 1e-10):
    """Adaptive integral of ``g`` over (0, oo) with an optional substitution.

    transform:
      * ``"none"``           -- integrate g(s) ds over (0, oo)
      * ``"inverse_square"`` -- integrate g(s) ds over (0, oo) via s -> 1/s

    The working variable is mapped to the log axis, where the integrator uses
    dyadic bisection of fixed 15-point Gauss-Legendre panels, extending the
    domain outward until new blocks are negligible.  ``g`` follows the batch
    contract of ``eval_batch`` and may return a payload of shape (n, ...); the
    error metric is then the max over payload components.  A panel is
    accepted when its two halves change it by less than its share of the
    absolute budget, or by no more than float64 rounding of its value.
    Subdivision order is deterministic.

    Raises ConvergenceError at once when the call has spent its 4096
    bisections, which the central interval and the outward blocks share, or
    when the extension reaches the log-axis cap.  Its estimate holds the
    intervals done and the open panels; its error bound is inf, since the
    outward blocks not yet visited are unknown.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if transform not in HALFLINE_TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}; expected one of {HALFLINE_TRANSFORMS}")

    if transform == "none":
        def G(u):
            s = np.exp(u)
            return _weight_payload(eval_batch(g, s), s)
    else:  # inverse_square: ∫_0^infty g(s) ds = ∫_0^infty g(1/v) v^{-2} dv, v = e^u
        def G(u):
            return _weight_payload(eval_batch(g, np.exp(-u)), np.exp(-u))

    budget = max(_HALFLINE_ABS_TOL, tol)
    value, bisections = 0.0, 0

    def adaptive(a: float, b: float, abs_budget: float):
        """Dyadic bisection of [a, b] with the fixed 15-point rule, in
        deterministic order, drawing on the call's one bisection budget."""
        nonlocal bisections
        total = None
        stack = [(a, b, _gl15_panel(G, a, b))]
        while stack:
            lo, hi, whole = stack.pop()
            mid = 0.5 * (lo + hi)
            left = _gl15_panel(G, lo, mid)
            right = _gl15_panel(G, mid, hi)
            better = left + right
            delta = float(np.max(np.abs(better - whole)))
            if (delta <= abs_budget * (hi - lo) / (b - a)
                    or delta <= _ROUNDING_FLOOR * float(np.max(np.abs(better)))):
                total = better if total is None else total + better
            elif bisections == _HALFLINE_MAX_BISECTIONS:
                done = better if total is None else total + better
                raise ConvergenceError(
                    f"half-line bisection budget ({_HALFLINE_MAX_BISECTIONS}) exhausted",
                    estimate=_maybe_scalar(value + sum((p[2] for p in stack), done)),
                    error_bound=math.inf,
                )
            else:
                bisections += 1
                stack.append((mid, hi, right))
                stack.append((lo, mid, left))
        return total

    value = adaptive(-6.0, 6.0, 0.5 * budget)

    # Extend outward in width-4 blocks until two consecutive blocks are quiet.
    for direction in (+1, -1):
        edge = 6.0 * direction
        quiet = 0
        while quiet < 2:
            nxt = edge + 4.0 * direction
            if abs(nxt) > _LOG_CAP:
                raise ConvergenceError(
                    "half-line extension reached the log-axis cap without the "
                    "integrand decaying; integral may diverge",
                    estimate=_maybe_scalar(value),
                    error_bound=math.inf,
                )
            lo, hi = (edge, nxt) if direction > 0 else (nxt, edge)
            v = adaptive(lo, hi, 0.25 * budget)
            value = value + v
            scale = float(np.max(np.abs(value)))
            if float(np.max(np.abs(v))) <= 0.05 * (_HALFLINE_ABS_TOL + tol * (1.0 + scale)):
                quiet += 1
            else:
                quiet = 0
            edge = nxt

    return _maybe_scalar(value)


def _maybe_scalar(value):
    arr = np.asarray(value)
    if arr.shape == ():
        return float(arr)
    return arr
