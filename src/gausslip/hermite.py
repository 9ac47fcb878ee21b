"""Multi-index Hermite polynomials, orthonormal in L^2(gamma), and expansions.

Multi-indices are plain tuples of non-negative integers.  ``hermite_eval``
uses the physicists' three-term recurrence with on-the-fly normalization, so
values stay well scaled up to degree ~100.  A ``HermiteExpansion`` is an
immutable truncated coefficient table indexed by multi-indices of total
degree <= ``degree_cap``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .quadrature import QuadratureRule, default_rule, eval_batch, tensor_nodes

DEFAULT_DEGREE_CAP = {1: 40, 2: 20, 3: 12}


def check_multi_index(nu) -> tuple[int, ...]:
    nu = tuple(int(v) for v in (nu if hasattr(nu, "__len__") else (nu,)))
    if not nu:
        raise ValueError("multi-index must have at least one entry")
    if any(v < 0 for v in nu):
        raise ValueError(f"multi-index entries must be non-negative, got {nu}")
    return nu


def graded_indices(d: int, n_max: int) -> list[tuple[int, ...]]:
    """All multi-indices of length d with total degree <= n_max, graded-lex order."""
    idx = [nu for nu in product(range(n_max + 1), repeat=d) if sum(nu) <= n_max]
    idx.sort(key=lambda nu: (sum(nu), nu))
    return idx


def hermite_values_1d(n_max: int, x) -> np.ndarray:
    """Table of normalized 1-d Hermite values, shape (n_max+1, *x.shape).

    Row n holds H_n(x) / sqrt(2^n n!), orthonormal against e^{-x^2}/sqrt(pi).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x
    for n in range(1, n_max):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * out[n]
                      - math.sqrt(n / (n + 1.0)) * out[n - 1])
    return out


def as_points(x, d: int) -> np.ndarray:
    """Coerce ``x`` to an array of points with coordinates on the last axis."""
    x = np.asarray(x, dtype=float)
    if d == 1:
        if x.ndim == 0 or x.shape[-1] != 1:
            x = x[..., None]
        return x
    if x.ndim == 1 and x.shape[0] == d:
        return x[None, :]
    if x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"points must have last axis of size d={d}, got shape {x.shape}")
    return x


def point_or_batch(x, vals: np.ndarray, d: int):
    """``vals`` as a float when ``x`` was a single point, else the batch itself.

    A single point is a scalar for d = 1 and a length-d vector for d > 1.
    """
    if np.ndim(vals) == 0 or np.ndim(x) == 0 or (d > 1 and np.ndim(x) == 1):
        return float(np.reshape(vals, -1)[0])
    return vals


def hermite_eval(nu, x):
    """Value of the orthonormal product Hermite polynomial h_nu at x.

    ``x`` may be a scalar (d=1), a length-d point, or an array of points with
    coordinates on the last axis; returns a float or the batch array.
    """
    nu = check_multi_index(nu)
    d = len(nu)
    pts = as_points(x, d)
    val = np.ones(pts.shape[:-1])
    for axis, n in enumerate(nu):
        table = hermite_values_1d(n, pts[..., axis])
        val = val * table[n]
    return point_or_batch(x, val, d)


@dataclass(frozen=True)
class HermiteExpansion:
    """Truncated Fourier-Hermite coefficient table."""

    dimension: int
    degree_cap: int
    coefficients: dict

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.degree_cap < 0:
            raise ValueError("degree cap must be >= 0")
        clean = {}
        for nu, c in self.coefficients.items():
            nu = check_multi_index(nu)
            if len(nu) != self.dimension:
                raise ValueError(f"multi-index {nu} does not have length d={self.dimension}")
            if sum(nu) > self.degree_cap:
                raise ValueError(f"multi-index {nu} exceeds degree cap {self.degree_cap}")
            clean[nu] = float(c)
        object.__setattr__(self, "coefficients", clean)

    def coefficient(self, nu) -> float:
        return self.coefficients.get(check_multi_index(nu), 0.0)

    def max_level(self) -> int:
        return max((sum(nu) for nu in self.coefficients), default=0)


def project(f, d: int, n_max: int, rule: QuadratureRule | None = None) -> HermiteExpansion:
    """Fourier-Hermite coefficients fhat(nu) = ∫ f h_nu dgamma for |nu| <= n_max."""
    if n_max < 0:
        raise ValueError("degree cap must be >= 0")
    if rule is None:
        rule = default_rule()
    pts, w = tensor_nodes(rule, d)
    vals = eval_batch(f, pts)
    norm = math.pi ** (d / 2.0)
    tables = [hermite_values_1d(n_max, pts[:, axis]) for axis in range(d)]
    wv = w * vals
    coeffs = {}
    for nu in graded_indices(d, n_max):
        prod_vals = tables[0][nu[0]]
        for axis in range(1, d):
            prod_vals = prod_vals * tables[axis][nu[axis]]
        coeffs[nu] = float(wv @ prod_vals) / norm
    return HermiteExpansion(dimension=d, degree_cap=n_max, coefficients=coeffs)


def eval_expansion(e: HermiteExpansion, x):
    """Partial-sum value sum_{|nu|<=N} fhat(nu) h_nu(x); linear in coefficients."""
    pts = as_points(x, e.dimension)
    n_max = e.max_level()
    tables = [hermite_values_1d(n_max, pts[..., axis]) for axis in range(e.dimension)]
    val = np.zeros(pts.shape[:-1])
    for nu, c in sorted(e.coefficients.items(), key=lambda it: (sum(it[0]), it[0])):
        if c == 0.0:
            continue
        term = tables[0][nu[0]]
        for axis in range(1, e.dimension):
            term = term * tables[axis][nu[axis]]
        val = val + c * term
    return point_or_batch(x, val, e.dimension)


def as_function(e: HermiteExpansion):
    """Wrap an expansion as a vectorized callable on point batches."""
    return lambda x: eval_expansion(e, x)


def chaos_project(e: HermiteExpansion, n: int) -> HermiteExpansion:
    """Projection J_n: keep exactly the coefficients with |nu| = n."""
    if n < 0 or n > e.degree_cap:
        raise ValueError(f"chaos level {n} outside [0, {e.degree_cap}]")
    coeffs = {nu: c for nu, c in e.coefficients.items() if sum(nu) == n}
    return HermiteExpansion(e.dimension, e.degree_cap, coeffs)


def remove_mean(e: HermiteExpansion) -> HermiteExpansion:
    """Subtract the gamma-mean: zero the constant coefficient, keep the rest."""
    zero = (0,) * e.dimension
    coeffs = dict(e.coefficients)
    coeffs[zero] = 0.0
    return HermiteExpansion(e.dimension, e.degree_cap, coeffs)


def scale_by_level(e: HermiteExpansion, multiplier) -> HermiteExpansion:
    """Apply a spectral multiplier m(|nu|) to every coefficient."""
    cache = {}
    coeffs = {}
    for nu, c in e.coefficients.items():
        n = sum(nu)
        if n not in cache:
            cache[n] = float(multiplier(n))
        coeffs[nu] = c * cache[n]
    return HermiteExpansion(e.dimension, e.degree_cap, coeffs)


# ----------------------------------------------------------------------------
# Serialization: {d, N, entries: [{nu: [...], c: float}, ...]} in graded-lex
# order, floats printed with 17 significant digits.
# ----------------------------------------------------------------------------

def expansion_to_json(e: HermiteExpansion) -> str:
    entries = []
    for nu in sorted(e.coefficients, key=lambda nu: (sum(nu), nu)):
        entries.append('{"nu": [%s], "c": %s}'
                       % (", ".join(str(v) for v in nu),
                          format(e.coefficients[nu], ".17g")))
    body = ",\n    ".join(entries)
    return ('{\n  "d": %d,\n  "N": %d,\n  "entries": [\n    %s\n  ]\n}\n'
            % (e.dimension, e.degree_cap, body))


def expansion_from_json(text: str) -> HermiteExpansion:
    raw = json.loads(text)
    coeffs = {tuple(entry["nu"]): float(entry["c"]) for entry in raw["entries"]}
    return HermiteExpansion(dimension=int(raw["d"]), degree_cap=int(raw["N"]),
                            coefficients=coeffs)


def save_expansion(e: HermiteExpansion, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(expansion_to_json(e))


def load_expansion(path) -> HermiteExpansion:
    with open(path, "r", encoding="utf-8") as fh:
        return expansion_from_json(fh.read())
