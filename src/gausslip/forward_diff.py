"""k-th order forward differences and their calculus identities.

Delta_s^k(f, t) = sum_{j=0}^k C(k, j) (-1)^j f(t + (k-j) s).  The alternating
sum is catastrophically cancellative for smooth f and small s, so the scalar
entry point warns when nearly all digits are lost.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CancellationWarning, ConvergenceError
from .quadrature import eval_batch, tensor_grid

_GL_ORDERS = (16, 24)

# relative size of the result below which an alternating sum is flagged
CANCELLATION_THRESHOLD = 1e-10


def binomial_row(k: int) -> list[int]:
    """Row k of Pascal's triangle, exact integers, k <= 64."""
    if k < 0 or k > 64:
        raise ValueError("binomial rows are provided for 0 <= k <= 64")
    return [math.comb(k, j) for j in range(k + 1)]


@dataclass(frozen=True)
class ForwardDifferenceQuery:
    t: float
    s: float
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("difference order k must be >= 1")
        if not 0 < self.s < math.inf:
            raise ValueError("increment s must be finite and positive")
        if not 0 <= self.t < math.inf:
            raise ValueError("base point t must be finite and >= 0")


def forward_difference(f, query: ForwardDifferenceQuery) -> float:
    """Delta_s^k(f, t) accumulated with compensated summation."""
    t, s, k = query.t, query.s, query.k
    binom = binomial_row(k)
    terms = [binom[j] * (-1) ** j * float(f(t + (k - j) * s)) for j in range(k + 1)]
    value = math.fsum(terms)
    peak = max(abs(v) for v in terms)
    if peak > 0 and abs(value) < CANCELLATION_THRESHOLD * peak:
        warnings.warn(
            f"forward difference lost ~{peak / max(abs(value), 5e-324):.1e}x of its "
            f"leading terms (k={k}, s={s:.3g}); result may be noise",
            CancellationWarning,
            stacklevel=2,
        )
    return value


def forward_difference_curve(f, t: float, s_values, k: int) -> np.ndarray:
    """Vectorized Delta_s^k(f, t) over an array of increments s."""
    s = np.asarray(s_values, dtype=float)
    binom = binomial_row(k)
    acc = np.zeros(s.shape)
    for j in range(k + 1):
        acc = acc + binom[j] * (-1) ** j * np.asarray(f(t + (k - j) * s), dtype=float)
    return acc


def nested_integral_form(f_deriv_k, query: ForwardDifferenceQuery, tol: float = 1e-9) -> float:
    """Delta_s^k(f, t) as the k-fold nested integral of the k-th derivative.

    Telescoping the nested ranges gives the cube form
    ∫_{[0,s]^k} f^{(k)}(t + w_1 + ... + w_k) dw, evaluated by tensor
    Gauss-Legendre at two orders; disagreement beyond ``tol`` raises.
    """
    t, s, k = query.t, query.s, query.k
    if k > 4:
        raise ValueError("nested integral form is supported for k <= 4")

    results = []
    for m in _GL_ORDERS:
        x, w = np.polynomial.legendre.leggauss(m)
        offs, weight = tensor_grid([(0.5 * s * (x + 1.0), 0.5 * s * w)] * k)
        vals = eval_batch(f_deriv_k, t + offs.sum(axis=1))
        results.append(float(np.sum(weight * vals)))
    err = abs(results[1] - results[0])
    if err > tol * (1.0 + abs(results[1])):
        raise ConvergenceError(
            f"nested quadrature did not settle (diff {err:.3g})",
            estimate=results[1], error_bound=err)
    return results[1]


@dataclass(frozen=True)
class BoundProbeRow:
    t: float
    s: float
    difference: float
    envelope: float
    ratio: float


def difference_bound_probe(f, k: int, delta: float, t_grid, s_grid) -> list[BoundProbeRow]:
    """Ratios |Delta_s^k(f, t)| / (s^k t^{delta-k}) over a (t, s) grid.

    ``s_grid`` entries may be absolute increments or callables of t.
    """
    if delta >= k:
        raise ValueError("the envelope exponent requires delta < k")
    rows = []
    for t in t_grid:
        if t <= 0:
            raise ValueError("t grid must be positive")
        for s_spec in s_grid:
            s = float(s_spec(t)) if callable(s_spec) else float(s_spec)
            if s <= 0:
                raise ValueError("s grid must be positive")
            diff = forward_difference(f, ForwardDifferenceQuery(t=t, s=s, k=k))
            envelope = s ** k * t ** (-k + delta)
            rows.append(BoundProbeRow(t=t, s=s, difference=diff,
                                      envelope=envelope,
                                      ratio=abs(diff) / envelope))
    return rows
