"""Lipschitz-space seminorm estimators under the Gaussian measure, and probes.

The seminorm of order alpha weights the grid sup-norm of the n-th time
derivative of P_t f by t^{n-alpha}, n being the smallest integer above alpha.
Sup-norms are grid proxies over [-R, R] (the probes take d = 1 input) with one
local refinement pass (``supnorm_is_grid_proxy`` is stamped on every
estimate); derivatives are taken spectrally, which is exact on the truncated
expansion.  A probe builds each t-row of its t-grid as an expansion and
evaluates all rows together, one product per grid against one Hermite table.

Probes are stability checks with declared windows, not proofs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fractional import FractionalSpec, apply_fractional, smallest_integer_above
from .hermite import HermiteExpansion, eval_expansions, project, remove_mean, scale_by_level
from .quadrature import default_rule, eval_batch
from .semigroup import SemigroupQuery, ph_apply

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
    return tuple(sorted(float(t) for t in (t_grid if t_grid is not None else DEFAULT_T_GRID)))


def _as_expansion(f, degree_cap: int = 40) -> HermiteExpansion:
    if isinstance(f, HermiteExpansion):
        return f
    return project(f, 1, degree_cap, default_rule())


def check_probe_dimension(d: int, what: str = "expansion") -> None:
    """Every probe takes its sup-norms on a 1-d grid."""
    if d != 1:
        raise ValueError(f"the Lipschitz probes take d=1 input, got a d={d} {what}")


def _sup_norms(fs: list, x_radius: float, grid_points: int) -> list:
    """``sup_norm_estimate`` of each of ``fs``: one callable, or d=1 expansions
    of one degree cap, which each pass evaluates together with one product."""
    if grid_points < 3:
        raise ValueError("need at least 3 grid points per axis")
    if not fs:
        return []
    if isinstance(fs[0], HermiteExpansion):
        check_probe_dimension(fs[0].dimension)
        values = partial(eval_expansions, fs)
    else:
        values = lambda p: eval_batch(fs[0], p.reshape(-1, 1)).reshape(p.shape[:-1])
    xs = np.linspace(-x_radius, x_radius, grid_points)
    vals = np.abs(values(xs[None, :, None]))
    i = np.argmax(vals, axis=1)
    h = xs[1] - xs[0]
    # each function on its own window around its argmax
    fine = np.linspace(np.maximum(-x_radius, xs[i] - h), np.minimum(x_radius, xs[i] + h),
                       41, axis=1)
    fvals = np.abs(values(fine[..., None]))
    j = np.argmax(fvals, axis=1)
    return [SupNorm(value=float(max(fvals[r, j[r]], vals[r, i[r]])),
                    location=float(fine[r, j[r]] if fvals[r, j[r]] >= vals[r, i[r]] else xs[i[r]]),
                    boundary=bool(i[r] in (0, grid_points - 1))) for r in range(len(fs))]


def sup_norm_estimate(f, x_radius: float = 3.0, grid_points: int = 121) -> SupNorm:
    """Grid sup of |f| on [-R, R] with one refinement pass around the argmax.

    A lower bound of the true sup-norm; the boundary flag marks an argmax on
    the edge of the box (sup possibly not attained inside).
    """
    return _sup_norms([f], x_radius, grid_points)[0]


def _derivative_sup_rows(e: HermiteExpansion, order: int, t_grid, x_radius: float,
                         grid_points: int = 121) -> list:
    rows = [ph_apply(e, SemigroupQuery(float(t), "spectral", order)) for t in t_grid]
    sups = _sup_norms(rows, x_radius, grid_points)
    return [(float(t), sup.value) for t, sup in zip(t_grid, sups)]


def seminorm_estimate(f, alpha: float, t_grid=None, x_radius: float = 3.0, *,
                      n: int | None = None, degree_cap: int = 40,
                      grid_points: int = 121) -> LipschitzEstimate:
    """Estimate A_alpha(f) = max over the t-grid of t^{n-alpha} sup |d^n_t P_t f|.

    Flags ``non_convergent`` when the weighted rows are still rising at the
    smallest t (evidence that f fails the Lipschitz condition of this order
    at the grid resolution), and ``boundary`` when a sup-norm argmax landed
    on the box edge.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n is None:
        n = smallest_integer_above(alpha)
    if n <= alpha:
        raise ValueError(f"derivative order n={n} must exceed alpha={alpha}")
    t_grid = _sorted_t_grid(t_grid)
    e = _as_expansion(f, degree_cap)
    sup_f = sup_norm_estimate(e, x_radius, grid_points)
    rows = []
    flags = []
    if sup_f.boundary:
        flags.append("boundary")
    for t, sup in _derivative_sup_rows(e, n, t_grid, x_radius, grid_points):
        rows.append(SeminormRow(t=t, sup_norm=sup, weighted=t ** (n - alpha) * sup))
    weighted = [r.weighted for r in rows]
    a_alpha = max(weighted) if weighted else 0.0
    if len(rows) >= 2 and weighted[0] == a_alpha and weighted[0] > 1.02 * weighted[1] > 0:
        flags.append("non_convergent")
    return LipschitzEstimate(alpha=alpha, n=n, t_grid=t_grid, x_radius=x_radius,
                             a_alpha=a_alpha, sup_norm_f=sup_f.value,
                             rows=tuple(rows), flags=tuple(flags))


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
    if float(alpha).is_integer():
        raise ValueError("the modulus probe requires non-integer alpha")
    if n is None:
        n = smallest_integer_above(alpha)
    t_grid = _sorted_t_grid(t_grid)
    e = _as_expansion(f, degree_cap)
    sup_f = sup_norm_estimate(e, x_radius, grid_points).value
    # the multiplier is called within its own iteration, at that t
    diffs = [scale_by_level(e, lambda m: np.expm1(-np.sqrt(m) * t) ** n) for t in t_grid]
    norms = [sup.value for sup in _sup_norms(diffs, x_radius, grid_points)]
    rows = tuple(ModulusRow(t=t, norm=norm, ratio=norm / t ** alpha)
                 for t, norm in zip(t_grid, norms))
    return ModulusReport(alpha=alpha, n=n, rows=rows,
                         max_ratio=max(r.ratio for r in rows) if rows else 0.0,
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

    Both orders must exceed alpha; the probe passes when the two estimates
    are within the declared comparability window (or both vanish).
    """
    if k <= alpha or l <= alpha:
        raise ValueError("both derivative orders must exceed alpha")
    est_k = seminorm_estimate(f, alpha, t_grid, x_radius, n=k,
                              degree_cap=degree_cap, grid_points=grid_points)
    est_l = seminorm_estimate(f, alpha, t_grid, x_radius, n=l,
                              degree_cap=degree_cap, grid_points=grid_points)
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
    n = smallest_integer_above(alpha2)
    t_grid = _sorted_t_grid(t_grid)
    e = _as_expansion(f, degree_cap)
    sup_rows = _derivative_sup_rows(e, n, t_grid, x_radius, grid_points)
    a1 = max((t ** (n - alpha1) * s for t, s in sup_rows), default=0.0)
    a2 = max((t ** (n - alpha2) * s for t, s in sup_rows), default=0.0)
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
    if op.kind.endswith("derivative"):
        if op.beta >= alpha:
            raise ValueError("a derivative probe requires beta < alpha")
        target_alpha = alpha - op.beta
    else:
        target_alpha = alpha + op.beta
    t_grid = _sorted_t_grid(t_grid)
    refined = tuple(np.geomspace(t_grid[0], t_grid[-1], 2 * len(t_grid)))
    rows = []
    stable = True
    for name, f in f_suite:
        e = _as_expansion(f, degree_cap)
        if op.kind == "riesz_potential" and op.representation == "integral":
            e = remove_mean(e)
        source = seminorm_estimate(e, alpha, t_grid, x_radius,
                                   degree_cap=degree_cap, grid_points=grid_points)
        image = apply_fractional(e, op)
        target = seminorm_estimate(image, target_alpha, t_grid, x_radius,
                                   degree_cap=degree_cap, grid_points=grid_points)
        target_ref = seminorm_estimate(image, target_alpha, refined, x_radius,
                                       degree_cap=degree_cap, grid_points=grid_points)
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
