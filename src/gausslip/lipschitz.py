"""Lipschitz-space seminorm estimators under the Gaussian measure, and probes.

The seminorm of order alpha weights the grid sup-norm of the n-th time
derivative of P_t f by t^{n-alpha}, n being the smallest integer above alpha.
Sup-norms are grid proxies over [-R, R] (the probes take d = 1 input) with one
local refinement pass (``supnorm_is_grid_proxy`` is stamped on every
estimate); derivatives are taken spectrally, which is exact on the truncated
expansion.  A probe gets its t-rows from (T, N+1) symbol matrices, t down the
column and the chaos level along the row: multiplied into a coefficient
vector they give the coefficients of every row.  Every row of a probe (f, its
t-rows and, for the boundedness probe, op(f) and its rows on both t-grids) is
one row of one coefficient array, and one sup-norm pass evaluates it into
value, location and boundary arrays: the coarse grid, then each row on the
refinement window around its own coarse argmax.  The grid, the windows of every
coarse node and their Hermite tables depend only on (N, R, P) and are built
once per process per key (``_sup_grid``, ``_sup_tables``): (N+1) P 42 float64,
1.7 MB at N = 40, P = 121.

Probes are stability checks with declared windows, not proofs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fractional import FractionalSpec, apply_fractional, smallest_integer_above
from . import hermite
from .hermite import HermiteExpansion, project, remove_mean
from .quadrature import default_rule, eval_batch
# the probes call ph_symbol only; ph_apply stays as the name copy the benchmark's
# tracer wraps (perfbench/tests/test_benchmark.py::
# test_no_gausslip_name_still_points_at_an_unwrapped_function)
from .semigroup import ph_apply, ph_symbol  # noqa: F401

DEFAULT_T_GRID = tuple(np.geomspace(0.0125, 4.0, 16))

#: pass window for the comparability of two derivative orders
COMPARABILITY_WINDOW = (1.0 / 50.0, 50.0)

#: maximal relative drift of a seminorm under one t-grid refinement
STABILITY_DRIFT = 0.25


@dataclass(frozen=True)
class SupNorm:
    value: float
    location: float
    boundary: bool


@dataclass(frozen=True)
class SeminormRow:
    t: float
    sup_norm: float
    weighted: float


@dataclass(frozen=True)
class LipschitzEstimate:
    alpha: float
    n: int
    t_grid: tuple
    x_radius: float
    a_alpha: float
    sup_norm_f: float
    rows: tuple
    flags: tuple
    supnorm_is_grid_proxy: bool = True


def _sorted_t_grid(t_grid) -> tuple:
    """The t-grid in increasing order: a nonempty sequence of finite t > 0."""
    ts = tuple(sorted(float(t) for t in (t_grid if t_grid is not None else DEFAULT_T_GRID)))
    if not ts or not all(0 < t < math.inf for t in ts):
        raise ValueError(f"the t-grid must be nonempty, of finite t > 0, got {ts}")
    return ts


def _as_expansion(f, degree_cap: int = 40) -> HermiteExpansion:
    if isinstance(f, HermiteExpansion):
        check_probe_dimension(f.dimension)
        return f
    return project(f, 1, degree_cap, default_rule())


def check_probe_dimension(d: int, what: str = "expansion") -> None:
    """Every probe takes its sup-norms on a 1-d grid."""
    if d != 1:
        raise ValueError(f"the Lipschitz probes take d=1 input, got a d={d} {what}")


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=8)
def _sup_grid(x_radius: float, grid_points: int) -> tuple:
    """The coarse grid ``xs`` of [-R, R] and the (P, 41) refinement window
    of every coarse node, one grid step either side, clipped to the box."""
    xs = np.linspace(-x_radius, x_radius, grid_points)
    h = xs[1] - xs[0]
    windows = np.linspace(np.maximum(-x_radius, xs - h), np.minimum(x_radius, xs + h), 41,
                          axis=1)
    return _read_only(xs, windows)


@lru_cache(maxsize=8)
def _sup_tables(n_max: int, x_radius: float, grid_points: int) -> tuple:
    """The (N+1, P) Hermite table of the coarse grid and the (N+1, P, 41)
    table of its windows."""
    xs, windows = _sup_grid(x_radius, grid_points)
    return _read_only(hermite.hermite_values_1d(n_max, xs),
                      hermite.hermite_values_1d(n_max, windows))


def _sup_norms(fs, x_radius: float, grid_points: int) -> tuple:
    """``sup_norm_estimate`` of one callable, or of each row of a (K, N+1)
    coefficient array of d=1 expansions, as (K,) value, location and boundary.

    One evaluator, picked once, gives the rows at points with their coarse
    grid index (None on the coarse grid): the cached Hermite tables for an
    array, ``eval_batch`` for a callable.  The coarse pass evaluates every
    row on the grid, the fine pass each row on its own coarse argmax's window.
    """
    if not isinstance(grid_points, (int, np.integer)):
        raise ValueError(f"grid_points must be an integer, got {grid_points!r}")
    if grid_points < 3:
        raise ValueError(f"grid_points must be at least 3, got {grid_points}")
    try:
        in_range = 0 < x_radius < math.inf
    except (TypeError, ValueError):  # a string, None, an array of several
        in_range = False
    if not in_range:
        raise ValueError(f"x_radius must be positive and finite, got {x_radius!r}")
    x_radius = float(x_radius)  # a cache key: a 0-d array is unhashable
    xs, windows = _sup_grid(x_radius, grid_points)
    if callable(fs):
        def rows(points, index):
            return eval_batch(fs, points.reshape(-1, 1)).reshape(-1, points.shape[-1])
    else:
        coarse_table, window_table = _sup_tables(fs.shape[1] - 1, x_radius, grid_points)
        by_node = np.moveaxis(window_table, 1, 0)  # (P, N+1, 41), a view

        def rows(points, index):
            if index is None:
                return np.einsum("tn,nb->tb", fs, coarse_table)
            # each row against its own window's (N+1, 41) table, gathered 8
            # rows at a time (one (K, N+1, 41) gather is 1.8 MB at K = 132)
            out = np.empty(points.shape)
            for lo in range(0, len(fs), 8):
                out[lo:lo + 8] = np.einsum("tn,tnb->tb", fs[lo:lo + 8], by_node[index[lo:lo + 8]])
            return out
    vals = np.abs(rows(xs, None))
    i = np.argmax(vals, axis=1)
    fvals = np.abs(rows(windows[i], i))
    j = np.argmax(fvals, axis=1)
    coarse, refined = vals.max(axis=1), fvals.max(axis=1)
    location = np.where(refined >= coarse, windows[i, j], xs[i])
    return np.maximum(refined, coarse), location, (i == 0) | (i == grid_points - 1)


def sup_norm_estimate(f, x_radius: float = 3.0, grid_points: int = 121) -> SupNorm:
    """Grid sup of |f| on [-R, R] with one refinement pass around the argmax.

    A lower bound of the true sup-norm; the boundary flag marks an argmax on
    the edge of the box (sup possibly not attained inside).
    """
    if isinstance(f, HermiteExpansion):
        f = _as_expansion(f).vector[None]
    return SupNorm(*(a.item() for a in _sup_norms(f, x_radius, grid_points)))


def _sups_with_f(e: HermiteExpansion, symbol: np.ndarray, x_radius: float,
                 grid_points: int) -> tuple:
    """The sup-norm of f, those of its image under each row of the (T, N+1)
    ``symbol`` and f's boundary flag, from one (1 + T, N+1) coefficient array."""
    value, _, edge = _sup_norms(np.vstack([e.vector, e.vector * symbol]), x_radius, grid_points)
    return value[0].item(), value[1:].tolist(), edge[0]


def _derivative_symbol(e: HermiteExpansion, order: int, t_grid) -> np.ndarray:
    """The (T, N+1) symbol of d^order/dt^order P_t at each t of the grid."""
    return ph_symbol(np.array(t_grid)[:, None], np.arange(e.degree_cap + 1), order)


def _check_order(alpha: float, n: int | None) -> int:
    """The derivative order n of an alpha-seminorm, by default the smallest
    integer above alpha."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if n is None:
        n = smallest_integer_above(alpha)
    if not float(n).is_integer():
        raise ValueError(f"derivative order {n} must be an integer")
    if n <= alpha:
        raise ValueError(f"derivative order {n} must exceed alpha={alpha}")
    return n


def _estimate(alpha: float, n: int, t_grid: tuple, x_radius: float, sup_f: float,
              sups: list, boundary: bool) -> LipschitzEstimate:
    """The estimate whose f row has the sup-norm ``sup_f`` (its argmax on the
    box edge if ``boundary``) and whose t-rows have the sup-norms ``sups``."""
    flags = ["boundary"] if boundary else []
    rows = [SeminormRow(t=t, sup_norm=sup, weighted=t ** (n - alpha) * sup)
            for t, sup in zip(t_grid, sups)]
    weighted = [r.weighted for r in rows]
    a_alpha = max(weighted)
    if len(rows) >= 2 and weighted[0] == a_alpha and weighted[0] > 1.02 * weighted[1] > 0:
        flags.append("non_convergent")
    return LipschitzEstimate(alpha=alpha, n=n, t_grid=t_grid, x_radius=x_radius,
                             a_alpha=a_alpha, sup_norm_f=sup_f,
                             rows=tuple(rows), flags=tuple(flags))


def seminorm_estimate(f, alpha: float, t_grid=None, x_radius: float = 3.0, *,
                      n: int | None = None, degree_cap: int = 40,
                      grid_points: int = 121) -> LipschitzEstimate:
    """Estimate A_alpha(f) = max over the t-grid of t^{n-alpha} sup |d^n_t P_t f|.

    Flags ``non_convergent`` when the weighted rows are still rising at the
    smallest t (evidence that f fails the Lipschitz condition of this order
    at the grid resolution), and ``boundary`` when a sup-norm argmax landed
    on the box edge.
    """
    n = _check_order(alpha, n)
    t_grid = _sorted_t_grid(t_grid)
    e = _as_expansion(f, degree_cap)
    sup_f, sups, edge = _sups_with_f(e, _derivative_symbol(e, n, t_grid), x_radius, grid_points)
    return _estimate(alpha, n, t_grid, x_radius, sup_f, sups, edge)


@dataclass(frozen=True)
class ModulusRow:
    t: float
    norm: float
    ratio: float


@dataclass(frozen=True)
class ModulusReport:
    alpha: float
    n: int
    rows: tuple
    max_ratio: float
    ceiling: float
    ceiling_ok: bool


def modulus_probe(f, alpha: float, n: int | None = None, t_grid=None, *,
                  x_radius: float = 3.0, degree_cap: int = 40,
                  grid_points: int = 121) -> ModulusReport:
    """Rows t -> ||(P_t - I)^n f||_grid and the ratio against t^alpha.

    Also checks the universal ceiling ||(P_t - I)^n f|| <= 2^n ||f||.
    """
    n = _check_order(alpha, n)
    if float(alpha).is_integer():
        raise ValueError("the modulus probe requires non-integer alpha")
    t_grid = _sorted_t_grid(t_grid)
    e = _as_expansion(f, degree_cap)
    # (P_t - I)^n acts on chaos level m by (e^{-sqrt(m) t} - 1)^n
    symbol = np.expm1(-np.sqrt(np.arange(e.degree_cap + 1)) * np.array(t_grid)[:, None]) ** n
    sup_f, norms, _ = _sups_with_f(e, symbol, x_radius, grid_points)
    rows = tuple(ModulusRow(t=t, norm=norm, ratio=norm / t ** alpha)
                 for t, norm in zip(t_grid, norms))
    return ModulusReport(alpha=alpha, n=n, rows=rows,
                         max_ratio=max(r.ratio for r in rows),
                         ceiling=2.0 ** n * sup_f,
                         ceiling_ok=all(norm <= 2.0 ** n * sup_f + 1e-8 for norm in norms))


@dataclass(frozen=True)
class EquivalenceReport:
    alpha: float
    k: int
    l: int
    a_k: float
    a_l: float
    ratio: float
    exact_zero: bool
    comparable: bool


def derivative_equivalence_probe(f, alpha: float, k: int, l: int, t_grid=None, *,
                                 x_radius: float = 3.0, degree_cap: int = 40,
                                 grid_points: int = 121) -> EquivalenceReport:
    """Compare the seminorm computed with derivative orders k and l.

    Both orders must be integers above alpha; the probe passes when the two
    estimates are within the declared comparability window (or both vanish).
    """
    k, l = _check_order(alpha, k), _check_order(alpha, l)
    t_grid = _sorted_t_grid(t_grid)
    e = _as_expansion(f, degree_cap)
    symbol = np.vstack([_derivative_symbol(e, k, t_grid), _derivative_symbol(e, l, t_grid)])
    sup_f, sups, edge = _sups_with_f(e, symbol, x_radius, grid_points)
    est_k = _estimate(alpha, k, t_grid, x_radius, sup_f, sups[:len(t_grid)], edge)
    est_l = _estimate(alpha, l, t_grid, x_radius, sup_f, sups[len(t_grid):], edge)
    # projection roundoff leaves ~1e-16 coefficients on exactly-flat inputs
    noise = 1e-12 * (1.0 + est_k.sup_norm_f)
    if est_k.a_alpha <= noise and est_l.a_alpha <= noise:
        return EquivalenceReport(alpha, k, l, est_k.a_alpha, est_l.a_alpha, 1.0,
                                 exact_zero=True, comparable=True)
    if est_l.a_alpha == 0.0 or est_k.a_alpha == 0.0:
        return EquivalenceReport(alpha, k, l, est_k.a_alpha, est_l.a_alpha,
                                 math.inf, exact_zero=False, comparable=False)
    ratio = est_k.a_alpha / est_l.a_alpha
    lo, hi = COMPARABILITY_WINDOW
    return EquivalenceReport(alpha, k, l, est_k.a_alpha, est_l.a_alpha, ratio,
                             exact_zero=False, comparable=lo <= ratio <= hi)


@dataclass(frozen=True)
class InclusionReport:
    alpha1: float
    alpha2: float
    n: int
    a_alpha1: float
    a_alpha2: float
    c_remark: float
    bound: float
    satisfied: bool


def inclusion_probe(f, alpha1: float, alpha2: float, t_grid=None, *,
                    x_radius: float = 3.0, degree_cap: int = 40,
                    grid_points: int = 121) -> InclusionReport:
    """Row-wise check that the alpha2-seminorm controls the alpha1-seminorm.

    On shared sup-norm rows, t < 1 is controlled by the alpha2 weighting and
    t >= 1 by the t^{-n} decay bound, so
    A_{alpha1} <= max(A_{alpha2}, max_{t>=1} t^n sup).
    """
    if not 0 < alpha1 <= alpha2:
        raise ValueError("the probe requires 0 < alpha1 <= alpha2")
    n = _check_order(alpha2, None)
    t_grid = _sorted_t_grid(t_grid)
    e = _as_expansion(f, degree_cap)
    sups = _sup_norms(e.vector * _derivative_symbol(e, n, t_grid), x_radius, grid_points)[0]
    sup_rows = list(zip(t_grid, sups.tolist()))
    a1 = max(t ** (n - alpha1) * s for t, s in sup_rows)
    a2 = max(t ** (n - alpha2) * s for t, s in sup_rows)
    c_remark = max((t ** n * s for t, s in sup_rows if t >= 1.0), default=0.0)
    bound = max(a2, c_remark)
    return InclusionReport(alpha1=alpha1, alpha2=alpha2, n=n, a_alpha1=a1,
                           a_alpha2=a2, c_remark=c_remark, bound=bound,
                           satisfied=a1 <= bound * (1.0 + 1e-12))


@dataclass(frozen=True)
class BoundednessRow:
    name: str
    source_norm: float
    target_seminorm: float
    refined_seminorm: float
    ratio: float
    drift: float
    flags: tuple


@dataclass(frozen=True)
class BoundednessReport:
    kind: str
    beta: float
    alpha: float
    target_alpha: float
    rows: tuple
    stable: bool


def operator_boundedness_probe(op: FractionalSpec, f_suite, alpha: float,
                               t_grid=None, *, x_radius: float = 3.0,
                               degree_cap: int = 40,
                               grid_points: int = 121) -> BoundednessReport:
    """Finite, refinement-stable ratio check for a fractional operator.

    ``f_suite`` is a list of (name, function-or-expansion) pairs.  For each f
    the probe compares the target-space seminorm of op(f) (alpha+beta for
    potentials, alpha-beta for derivatives) against the source Lipschitz norm
    of f, and re-estimates the target seminorm on a doubled t-grid; the suite
    passes when the ratios are finite and drift at most ``STABILITY_DRIFT``.
    """
    if not f_suite:
        raise ValueError("operator_boundedness_probe needs at least one function in f_suite")
    if op.kind.endswith("derivative"):
        if op.beta >= alpha:
            raise ValueError("a derivative probe requires beta < alpha")
        target_alpha = alpha - op.beta
    else:
        target_alpha = alpha + op.beta
    n = _check_order(alpha, None)
    m = smallest_integer_above(target_alpha)
    t_grid = _sorted_t_grid(t_grid)
    refined = _sorted_t_grid(np.geomspace(t_grid[0], t_grid[-1], 2 * len(t_grid)))
    # per f: f, its t-rows, op(f), its t-rows and its rows on the refined grid
    names, blocks = [], []
    for name, f in f_suite:
        e = _as_expansion(f, degree_cap)
        if op.kind == "riesz_potential" and op.representation == "integral":
            e = remove_mean(e)
        image = apply_fractional(e, op).vector
        names.append(name)
        blocks.append(np.vstack([e.vector, e.vector * _derivative_symbol(e, n, t_grid),
                                 image, image * _derivative_symbol(e, m, t_grid),
                                 image * _derivative_symbol(e, m, refined)]))
    # expansions of a lower degree cap are padded with zero coefficients
    size, width = len(t_grid), 2 + 2 * len(t_grid) + len(refined)
    stacked = np.zeros((len(blocks) * width, max((b.shape[1] for b in blocks), default=1)))
    for r, block in enumerate(blocks):
        stacked[r * width:(r + 1) * width, :block.shape[1]] = block
    value, _, boundary = _sup_norms(stacked, x_radius, grid_points)
    rows = []
    stable = True
    for r, name in enumerate(names):
        block, edge = value[r * width:(r + 1) * width].tolist(), boundary[r * width:]
        source = _estimate(alpha, n, t_grid, x_radius, block[0], block[1:1 + size], edge[0])
        target = _estimate(target_alpha, m, t_grid, x_radius, block[1 + size],
                           block[2 + size:2 + 2 * size], edge[1 + size])
        target_ref = _estimate(target_alpha, m, refined, x_radius, block[1 + size],
                               block[2 + 2 * size:], edge[1 + size])
        src_norm = source.sup_norm_f + source.a_alpha
        flags = tuple(sorted(set(source.flags) | set(target.flags)))
        if src_norm == 0.0:
            ratio = 0.0
            drift = 0.0
        else:
            ratio = target.a_alpha / src_norm
            base = max(target.a_alpha, target_ref.a_alpha)
            drift = (abs(target_ref.a_alpha - target.a_alpha) / base) if base > 0 else 0.0
        if not math.isfinite(ratio) or drift > STABILITY_DRIFT:
            stable = False
        rows.append(BoundednessRow(name=name, source_norm=src_norm,
                                   target_seminorm=target.a_alpha,
                                   refined_seminorm=target_ref.a_alpha,
                                   ratio=ratio, drift=drift, flags=flags))
    return BoundednessReport(kind=op.kind, beta=op.beta, alpha=alpha,
                             target_alpha=target_alpha, rows=tuple(rows),
                             stable=stable)
