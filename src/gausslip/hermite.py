"""Multi-index Hermite polynomials, orthonormal in L^2(gamma), and expansions.

Multi-indices are plain tuples of non-negative integers.  ``hermite_eval``
uses the physicists' three-term recurrence with on-the-fly normalization, so
values stay well scaled up to degree ~100.  A ``HermiteExpansion`` is one
read-only coefficient vector over the multi-indices of total degree <=
``degree_cap`` in graded-lex order: multipliers of the chaos level |nu| act
on it elementwise, and projection and evaluation contract per-axis Hermite
tables one axis at a time.

``pointwise`` builds every evaluator gausslip returns on one point contract:
``as_points`` reads and checks the points, ``point_or_batch`` shapes the
values.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product

import numpy as np

from .quadrature import QuadratureRule, default_rule, eval_batch, tensor_nodes


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
    """``x`` as an array of points with coordinates on the last axis, shape
    ``(*batch, d)``.

    A single point is a scalar (d = 1) or an array of shape ``(d,)``; for
    d = 1 that includes ``(1,)``.  Its batch shape is ``()``.  For d = 1
    any other last axis is a batch of scalars.  A non-finite coordinate
    raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if d == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    elif x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"points must have last axis of size d={d}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    return x


def point_or_batch(batch: tuple, vals: np.ndarray):
    """The (n,) values of the points of batch shape ``batch`` as an evaluator
    returns them: a float for a single point (``batch == ()``), else an array
    of shape ``batch``, empty batches included."""
    return float(vals[0]) if batch == () else np.reshape(vals, batch)


def pointwise(d: int, values):
    """The one point contract: the callable that reads each of its point
    inputs with ``as_points``, broadcasts them against each other, calls
    ``values`` once with the (n, d) rows of every input (not at all for
    n = 0) and shapes its (n,) result by ``point_or_batch``.  Every evaluator
    gausslip returns is built here, so every route computes on (n, d) arrays
    only."""

    def apply(*xs):
        pts = np.broadcast_arrays(*[as_points(x, d) for x in xs])
        rows = [p.reshape(-1, d) for p in pts]
        return point_or_batch(pts[0].shape[:-1], values(*rows) if rows[0].size else np.empty(0))

    return apply


def hermite_eval(nu, x):
    """Value of the orthonormal product Hermite polynomial h_nu at x, by the
    point contract of ``pointwise``: a float at a single point, else the
    array of the batch shape."""
    nu = check_multi_index(nu)

    def values(pts):
        val = np.ones(pts.shape[0])
        for axis, n in enumerate(nu):
            val = val * hermite_values_1d(n, pts[:, axis])[n]
        return val

    return pointwise(len(nu), values)(x)


@dataclass(frozen=True, eq=False)
class HermiteExpansion:
    """Truncated Fourier-Hermite expansion: one read-only coefficient vector
    over ``graded_indices(dimension, degree_cap)``, given as that vector or as
    a ``{multi-index: coefficient}`` mapping.  A nan or inf coefficient
    raises ``ValueError``."""

    dimension: int
    degree_cap: int
    vector: np.ndarray

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.degree_cap < 0:
            raise ValueError("degree cap must be >= 0")
        rows = _index_table(self.dimension, self.degree_cap)[2]
        if hasattr(self.vector, "items"):
            vector = np.zeros(len(rows))
            for nu, c in self.vector.items():
                nu = check_multi_index(nu)
                if len(nu) != self.dimension:
                    raise ValueError(f"multi-index {nu} does not have length d={self.dimension}")
                if sum(nu) > self.degree_cap:
                    raise ValueError(f"multi-index {nu} exceeds degree cap {self.degree_cap}")
                vector[rows[nu]] = float(c)
        else:
            vector = np.array(self.vector, dtype=float)
            if vector.shape != (len(rows),):
                raise ValueError(f"expected {len(rows)} coefficients, got shape {vector.shape}")
        bad = np.flatnonzero(~np.isfinite(vector))
        if bad.size:
            nu = tuple(_index_table(self.dimension, self.degree_cap)[0][bad[0]].tolist())
            raise ValueError(f"expansion coefficients must be finite; the coefficient "
                             f"of {nu} is {vector[bad[0]]}")
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)

    @property
    def coefficients(self) -> dict:
        """The nonzero coefficients, ``{multi-index: value}`` in graded-lex order."""
        rows = _index_table(self.dimension, self.degree_cap)[2]
        return {nu: c for nu, c in zip(rows, self.vector.tolist()) if c != 0.0}

    def coefficient(self, nu) -> float:
        row = _index_table(self.dimension, self.degree_cap)[2].get(check_multi_index(nu))
        return 0.0 if row is None else float(self.vector[row])


@cache
def _index_table(d: int, n_max: int) -> tuple:
    """``graded_indices(d, n_max)`` as an (M, d) array, its levels and its rows."""
    idx = graded_indices(d, n_max)
    indices = np.array(idx, dtype=np.intp).reshape(len(idx), d)
    return indices, indices.sum(axis=1), {nu: row for row, nu in enumerate(idx)}


@lru_cache(maxsize=8)
def _rule_table(n_max: int, nodes: bytes) -> np.ndarray:
    """The read-only (n_max+1, m) Hermite table of a rule's nodes, keyed by
    their bytes (a ``QuadratureRule`` holds arrays and is unhashable)."""
    table = hermite_values_1d(n_max, np.frombuffer(nodes))
    table.setflags(write=False)
    return table


def project(f, d: int, n_max: int, rule: QuadratureRule | None = None) -> HermiteExpansion:
    """Fourier-Hermite coefficients fhat(nu) = ∫ f h_nu dgamma for |nu| <= n_max.

    The (n_max+1, m) Hermite table of the rule's m nodes is built once per
    process per (n_max, nodes): (n_max+1) m float64, 21 KB at N = 40 on the
    64-node default rule.
    """
    if n_max < 0:
        raise ValueError("degree cap must be >= 0")
    if rule is None:
        rule = default_rule()
    pts, w = tensor_nodes(rule, d)
    acc = (w * eval_batch(f, pts)).reshape((rule.nodes.size,) * d)
    table = _rule_table(n_max, rule.nodes.tobytes())
    # each step sums out the leading node axis and appends its degree axis
    for _ in range(d):
        acc = np.tensordot(acc, table, axes=([0], [1]))
    indices = _index_table(d, n_max)[0]
    return HermiteExpansion(d, n_max, acc[tuple(indices.T)] / math.pi ** (d / 2.0))


def eval_coefficients(vectors, d: int, n_max: int, x) -> np.ndarray:
    """Values of the expansions whose coefficient vectors over
    ``graded_indices(d, n_max)`` are the rows of ``vectors`` (K, M), all at the
    same points ``x`` of shape ``(*batch, d)``, as ``(K, *batch)``.

    The coefficients are contracted with the (n_max+1, P) Hermite table of
    each axis in turn, P the number of points.
    """
    vectors = np.asarray(vectors, dtype=float)
    pts = as_points(x, d)
    acc = np.zeros((len(vectors),) + (n_max + 1,) * d)
    acc[(slice(None),) + tuple(_index_table(d, n_max)[0].T)] = vectors
    subscripts = "t...n,nb->t...b"
    for axis in range(d - 1, -1, -1):
        acc = np.einsum(subscripts, acc, hermite_values_1d(n_max, pts[..., axis].reshape(-1)))
        subscripts = "t...nb,nb->t...b"
    return acc.reshape((len(vectors),) + pts.shape[:-1])


def eval_expansion(e: HermiteExpansion, x):
    """Partial-sum value sum_{|nu|<=N} fhat(nu) h_nu(x); linear in coefficients."""
    return as_function(e)(x)


def as_function(e: HermiteExpansion):
    """The expansion as a callable on points (``pointwise``)."""
    return pointwise(e.dimension,
                     lambda pts: eval_coefficients(e.vector[None], e.dimension, e.degree_cap, pts)[0])


def remove_mean(e: HermiteExpansion) -> HermiteExpansion:
    """Subtract the gamma-mean: zero the constant coefficient, keep the rest."""
    vector = e.vector.copy()
    vector[0] = 0.0  # row 0 is the zero multi-index
    return HermiteExpansion(e.dimension, e.degree_cap, vector)


def scale_by_level(e: HermiteExpansion, multiplier) -> HermiteExpansion:
    """Apply a spectral multiplier m(|nu|) to every coefficient.

    ``multiplier`` is called once, with the int array of the levels that hold
    a nonzero coefficient, in increasing order, and returns one factor per
    level; it is not called when every coefficient is zero.  Levels without
    a coefficient never reach it, so it may be undefined there.
    """
    levels = _index_table(e.dimension, e.degree_cap)[1]
    factor = np.zeros(e.degree_cap + 1)
    # bincount, not np.unique: np.unique imports numpy.ma on first use
    live = np.flatnonzero(np.bincount(levels[e.vector != 0.0], minlength=factor.size))
    if live.size:
        factor[live] = multiplier(live)
    return HermiteExpansion(e.dimension, e.degree_cap, e.vector * factor[levels])


# ----------------------------------------------------------------------------
# Serialization: {d, N, entries: [{nu: [...], c: float}, ...]}, the nonzero
# coefficients in graded-lex order, floats printed with 17 significant digits.
# ----------------------------------------------------------------------------

def expansion_to_json(e: HermiteExpansion) -> str:
    keep = e.vector != 0.0
    rows = np.column_stack([_index_table(e.dimension, e.degree_cap)[0][keep], e.vector[keep]])
    entry = '{"nu": [%s], "c": %%.17g}' % ", ".join(["%d"] * e.dimension)
    body = ",\n    ".join([entry] * len(rows)) % tuple(rows.ravel().tolist())
    return ('{\n  "d": %d,\n  "N": %d,\n  "entries": [\n    %s\n  ]\n}\n'
            % (e.dimension, e.degree_cap, body))


def expansion_from_json(text: str) -> HermiteExpansion:
    raw = json.loads(text)
    coeffs = {tuple(entry["nu"]): float(entry["c"]) for entry in raw["entries"]}
    return HermiteExpansion(int(raw["d"]), int(raw["N"]), coeffs)


def save_expansion(e: HermiteExpansion, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(expansion_to_json(e))


def load_expansion(path) -> HermiteExpansion:
    with open(path, "r", encoding="utf-8") as fh:
        return expansion_from_json(fh.read())
