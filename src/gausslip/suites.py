"""Verification suites: named checks over the library's operations.

Each suite is a table of ``RowSpec``s, one per report row, comparing a computed
value against an independent oracle or a stated bound.  One runner evaluates
every spec: an error becomes a failed row under the spec's own name and a
warning a ``warning:`` flag on it, so a suite never aborts.  Work shared by
several rows is a lazily memoized input.  Suites are deterministic for a fixed
config (the only randomness is a seeded generator for random polynomials).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from . import forward_diff as fd
from . import fractional as frac
from . import lipschitz as lip
from .catalog import DEFAULT_SUITE, catalog_function
from .hermite import (
    HermiteExpansion,
    eval_expansion,
    graded_indices,
    hermite_eval,
    project,
    remove_mean,
    scale_by_level,
)
from .quadrature import gauss_hermite_rule
from .report import ReportRow, VerificationReport, failed_row, make_report
from .semigroup import (
    SemigroupQuery,
    derivative_weight_mass,
    kernel_derivative_l1,
    mehler_kernel,
    ou_apply,
    ph_apply,
)

SUITES = ("eigen", "kernel-bound", "forward-diff", "fractional",
          "lipschitz", "boundedness", "all")

_UNBOUNDED = "unbounded catalog entry: sup-norm rows are grid proxies only"


@dataclass(frozen=True)
class SuiteConfig:
    functions: tuple = DEFAULT_SUITE
    alpha: float = 0.5
    beta: float = 0.5
    kind: str = "bessel_potential"
    representation: str = "spectral"
    t_min: float = 0.0125
    t_max: float = 4.0
    t_count: int = 16
    x_radius: float = 3.0
    x_count: int = 121
    degree_cap: int = 40
    nodes: int = 64
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # values on which rows would crash instead of check; every test
        # below is false on nan
        if not (math.isfinite(self.t_min) and self.t_min > 0):
            raise ValueError(f"t_min must be finite and > 0, got {self.t_min!r}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.t_min):
            raise ValueError(f"t_max must be finite and >= t_min = {self.t_min!r}, "
                             f"got {self.t_max!r}")
        if self.t_count < 2:
            raise ValueError(f"t_count must be >= 2, got {self.t_count!r}")
        if self.x_count < 3:
            raise ValueError(f"x_count must be >= 3, got {self.x_count!r}")
        if not (math.isfinite(self.x_radius) and self.x_radius > 0):
            raise ValueError(f"x_radius must be finite and > 0, got {self.x_radius!r}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")

    def t_grid(self) -> tuple:
        return tuple(np.geomspace(self.t_min, self.t_max, self.t_count))

    def probe_grid(self) -> dict:
        """The sup-norm grid keywords of the Lipschitz probes."""
        return dict(x_radius=self.x_radius, degree_cap=self.degree_cap,
                    grid_points=self.x_count)


@dataclass(frozen=True)
class RowSpec:
    """One report row.  ``compute`` returns the computed value, or a dict of
    ``ReportRow`` fields (``computed`` and any of ``oracle``, ``inputs``,
    ``flags``) that overrides the spec's own."""

    name: str
    inputs: str
    compute: Callable
    oracle: float = 0.0
    tol_rel: float = 0.0
    tol_abs: float = 0.0
    check: str = "match"
    flags: tuple = ()

    def evaluate(self) -> ReportRow:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = self.compute()
            except Exception as exc:  # recorded, never aborts the suite
                row = failed_row(self.name, self.inputs, f"{type(exc).__name__}: {exc}")
            else:
                static = {k: v for k, v in vars(self).items() if k != "compute"}
                fields = out if isinstance(out, dict) else {"computed": out}
                row = ReportRow(**{**static, **fields})
        warned = tuple(f"warning:{w.category.__name__}: {w.message}" for w in caught)
        return replace(row, flags=row.flags + warned) if warned else row


def _cos_projection(config: SuiteConfig):
    """cos(x) as an expansion, memoized for its rows (an error is raised in each)."""
    return cache(lambda: project(lambda p: np.cos(p[:, 0]), 1, config.degree_cap,
                                 gauss_hermite_rule(config.nodes)))


def _eigen_grid(d: int) -> np.ndarray:
    u = np.linspace(-2.0, 2.0, 11)
    if d == 1:
        return u[:, None]
    return np.stack([u, u[::-1]], axis=-1)  # 11 points across the square


def _rel_dev(computed: np.ndarray, oracle: np.ndarray) -> float:
    scale = float(np.max(np.abs(oracle)))
    if scale == 0.0:
        return float(np.max(np.abs(computed)))
    return float(np.max(np.abs(computed - oracle))) / scale


def _coefficient_gap(a: HermiteExpansion, b: HermiteExpansion) -> float:
    return float(np.max(np.abs(a.vector - b.vector)))


def _spectral(e: HermiteExpansion, kind: str, beta: float) -> HermiteExpansion:
    return frac.apply_fractional(e, frac.FractionalSpec(kind, beta, representation="spectral"))


def _spread(computes) -> float:
    values = [compute() for compute in computes]
    return max(values) / min(values)


# ----------------------------------------------------------------------------
# eigen: kernel / subordination actions vs spectral eigenvalues
# ----------------------------------------------------------------------------

_T1, _T2 = 0.3, 0.45


def _ou_eigen_dev(nu: tuple, t: float) -> float:
    d, grid = len(nu), _eigen_grid(len(nu))
    op = ou_apply(lambda p: hermite_eval(nu, p), SemigroupQuery(t, "kernel"), d=d)
    return _rel_dev(np.asarray(op(grid)), math.exp(-t * sum(nu)) * hermite_eval(nu, grid))


def _ph_eigen_dev(nu: tuple, t: float, method: str) -> float:
    grid = _eigen_grid(len(nu))
    want = math.exp(-math.sqrt(sum(nu)) * t) * hermite_eval(nu, grid)
    if len(nu) > 1:  # subordination of an expansion
        out = ph_apply(HermiteExpansion(len(nu), 4, {nu: 1.0}),
                       SemigroupQuery(t, method), tol=1e-9)
        return _rel_dev(np.asarray(eval_expansion(out, grid)), want)
    op = ph_apply(lambda p: hermite_eval(nu, p), SemigroupQuery(t, method), d=1, tol=1e-9)
    return _rel_dev(np.asarray(op(grid)), want)


def _unit_mass(t: float, semigroup: str) -> float:
    def one(p):
        return np.ones(p.shape[0])
    q = SemigroupQuery(t, "kernel")
    op = ou_apply(one, q, d=1) if semigroup == "ou" else ph_apply(one, q, d=1, tol=1e-9)
    return float(op(np.zeros((1, 1)))[0])


def _limit_zero_ratio(cos) -> float:
    """Worst ratio of successive grid deviations |P_t f - f| as t halves."""
    grid = _eigen_grid(1)
    f_vals = np.cos(grid[:, 0])
    norms = [float(np.max(np.abs(
        eval_expansion(ph_apply(cos(), SemigroupQuery(t, "spectral")), grid) - f_vals)))
        for t in (0.4, 0.2, 0.1, 0.05)]
    return max(norms[i + 1] / norms[i] for i in range(len(norms) - 1))


def _nested_law_dev(direct, inner_method: str, tol: float, xs: np.ndarray) -> float:
    inner = ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(_T2, inner_method),
                     d=1, tol=tol)
    nested = ph_apply(inner, SemigroupQuery(_T1, "kernel"), d=1, tol=tol)
    return float(np.max(np.abs(np.asarray(nested(xs)) - np.asarray(direct()(xs)))))


def suite_eigen(config: SuiteConfig) -> list:
    specs = []
    for d in (1, 2):
        for t in (0.25, 1.0):
            for nu in graded_indices(d, 4):
                label, inputs = "".join(map(str, nu)), f"d={d} nu={nu} t={t}"
                specs.append(RowSpec(f"ou.kernel.d{d}.nu{label}.t{t}", inputs,
                                     partial(_ou_eigen_dev, nu, t), tol_abs=config.tol))
                specs.append(RowSpec(f"ph.subordination.d{d}.nu{label}.t{t}", inputs,
                                     partial(_ph_eigen_dev, nu, t, "subordination"),
                                     tol_abs=config.tol))
                if d == 1:
                    specs.append(RowSpec(f"ph.kernel.d1.nu{label}.t{t}", inputs,
                                         partial(_ph_eigen_dev, nu, t, "kernel"),
                                         tol_abs=config.tol))
    for t in (0.25, 1.0):
        specs.append(RowSpec(f"ou.kernel.conservation.t{t}", f"T_t 1, t={t}",
                             partial(_unit_mass, t, "ou"), oracle=1.0, tol_rel=1e-7))
        specs.append(RowSpec(f"ph.kernel.conservation.t{t}", f"P_t 1, t={t}",
                             partial(_unit_mass, t, "ph"), oracle=1.0, tol_rel=1e-7))

    cos = _cos_projection(config)
    # the non-spectral semigroup-law rows check nested routes against this one
    direct = cache(lambda: ph_apply(lambda p: np.cos(p[:, 0]),
                                    SemigroupQuery(_T1 + _T2, "kernel"), d=1, tol=1e-8))
    return specs + [
        RowSpec("mehler.value.exp_t_half", "e^{-t}=1/2, x=y=0",
                lambda: mehler_kernel(math.log(2.0), 0.0, 0.0),
                oracle=1.0 / (math.sqrt(math.pi) * math.sqrt(0.75)), tol_rel=1e-12),
        # t -> infinity: P_t f approaches the gamma-mean of f
        RowSpec("ph.limit.t_infinity", "f=cos, t=20",
                lambda: float(np.max(np.abs(eval_expansion(
                    ph_apply(cos(), SemigroupQuery(20.0, "spectral")), _eigen_grid(1))
                    - math.exp(-0.25)))),
                tol_abs=1e-4),
        # t -> 0: grid deviation decreases monotonically
        RowSpec("ph.limit.t_zero.monotone", "f=cos", partial(_limit_zero_ratio, cos),
                oracle=1.0, check="bound"),
        RowSpec("ph.semigroup_law.spectral", "t=0.3+0.45",
                lambda: _coefficient_gap(
                    ph_apply(ph_apply(cos(), SemigroupQuery(_T1, "spectral")),
                             SemigroupQuery(_T2, "spectral")),
                    ph_apply(cos(), SemigroupQuery(_T1 + _T2, "spectral"))),
                tol_abs=1e-14),
        RowSpec("ph.semigroup_law.kernel_subordination", "t=0.3+0.45, f=cos",
                partial(_nested_law_dev, direct, "subordination", 1e-8,
                        np.array([[-1.0], [0.0], [0.8]])),
                tol_abs=1e-6),
        RowSpec("ph.semigroup_law.kernel_kernel", "t=0.3+0.45, f=cos, x=0.8",
                partial(_nested_law_dev, direct, "kernel", 1e-7, np.array([[0.8]])),
                tol_abs=1e-6),
    ]


# ----------------------------------------------------------------------------
# kernel-bound: L^1 norms of kernel time derivatives
# ----------------------------------------------------------------------------

def _l1_product(t: float, k: int, majorant: bool = False) -> float:
    """t^k ||d^k/dt^k p(t, 0, .)||_1, or t^k times its majorant ∫ |d^k/dt^k g(t, s)| ds;
    the paper bounds both independently of t."""
    value = derivative_weight_mass(t, k) if majorant else kernel_derivative_l1(t, 0.0, k).value
    return t * value if k == 1 else t * t * value


def suite_kernel_bound(config: SuiteConfig) -> list:
    t_grid = (0.1, 0.5, 1.0, 2.0)
    l1 = {t: cache(partial(_l1_product, t, 1)) for t in t_grid}
    mass = {t: cache(partial(_l1_product, t, 1, True)) for t in t_grid}
    times = f"t in {t_grid}"
    return [
        *(RowSpec(f"l1.k1.bound.t{t}", f"t={t}, x=0, k=1", l1[t],
                  oracle=2.0, tol_rel=0.05, check="bound") for t in t_grid),
        # both readings of the split factor: 1 + t^2/2s gives 2/t,
        # 1 + t^2/4s gives 1.5/t; the |.|-majorant sits below either.
        *(RowSpec(f"l1.k1.majorant.t{t}", f"t={t}, reading A bound 2, reading B bound 1.5",
                  mass[t], oracle=1.5, tol_rel=0.05, check="bound") for t in t_grid),
        RowSpec("l1.k1.majorant.scaling", times, lambda: _spread(mass.values()),
                oracle=3.0, check="bound"),
        RowSpec("l1.k1.true_value.scaling", times, lambda: _spread(l1.values()),
                oracle=10.0, check="bound",
                flags=("informational: exact scale-invariance holds for the "
                       "majorant row; the true value decays faster for t >= 1",)),
        *(RowSpec(f"l1.k2.bound.t{t}", f"t={t}, x=0, k=2", partial(_l1_product, t, 2),
                  oracle=16.0, tol_rel=0.05, check="bound") for t in t_grid),
        RowSpec("l1.k2.majorant.scaling", times,
                lambda: _spread(partial(_l1_product, t, 2, True) for t in t_grid),
                oracle=3.0, check="bound"),
    ]


# ----------------------------------------------------------------------------
# forward-diff: identities (i), (ii), (iii) and the semigroup cross-check
# ----------------------------------------------------------------------------

def _random_poly(rng, degree: int):
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    return np.polynomial.Polynomial(coeffs)


def _iterate_dev(poly, k: int) -> float:
    """Identity (i): Delta^k = Delta^1 of Delta^{k-1}."""
    t, s = 0.7, 0.31
    whole = fd.forward_difference(poly, fd.ForwardDifferenceQuery(t, s, k))
    nested = fd.forward_difference(
        lambda tau: fd.forward_difference(poly, fd.ForwardDifferenceQuery(tau, s, k - 1)),
        fd.ForwardDifferenceQuery(t, s, 1))
    return abs(whole - nested) / max(abs(whole), 1.0)


def _nested_gap(f, f_second, t: float, s: float) -> float:
    """Identity (ii): Delta^2 against its nested-integral form."""
    q = fd.ForwardDifferenceQuery(t, s, 2)
    return abs(fd.forward_difference(f, q) - fd.nested_integral_form(f_second, q))


def _ds_dev(k: int) -> float:
    """Identity (iii-a): d/ds Delta_s^k f(t) = k Delta_s^{k-1} f'(t + s)."""
    t, s, h = 0.5, 0.4, 1e-5
    up = fd.forward_difference(np.cos, fd.ForwardDifferenceQuery(t, s + h, k))
    dn = fd.forward_difference(np.cos, fd.ForwardDifferenceQuery(t, s - h, k))
    lhs = (up - dn) / (2 * h)
    rhs = k * fd.forward_difference(lambda v: -math.sin(v),
                                    fd.ForwardDifferenceQuery(t + s, s, k - 1))
    return abs(lhs - rhs) / max(abs(rhs), 1e-3)


def _dt_dev(poly) -> float:
    """Identity (iii-b): d^2/dt^2 Delta^3 f = Delta^3 f''."""
    t, s, k, h = 0.9, 0.2, 3, 1e-3
    vals = [fd.forward_difference(poly, fd.ForwardDifferenceQuery(t + i * h, s, k))
            for i in (-1, 0, 1)]
    lhs = (vals[2] - 2 * vals[1] + vals[0]) / h ** 2
    rhs = fd.forward_difference(poly.deriv(2), fd.ForwardDifferenceQuery(t, s, k))
    return abs(lhs - rhs) / max(abs(rhs), 1.0)


def _semigroup_power_dev(cos, k: int) -> float:
    """(P_t - I)^k f spectrally against Delta_t^k of tau -> P_tau f."""
    e, t, x = cos(), 0.3, 0.7
    direct = eval_expansion(scale_by_level(e, lambda m: np.expm1(-np.sqrt(m) * t) ** k), x)
    delta = fd.forward_difference(
        lambda tau: eval_expansion(ph_apply(e, SemigroupQuery(float(tau), "spectral")), x),
        fd.ForwardDifferenceQuery(0.0, t, k))
    return abs(direct - delta) / max(abs(direct), 1e-12)


def suite_forward_diff(config: SuiteConfig) -> list:
    rng = np.random.default_rng(config.seed)
    iterate_polys = {k: _random_poly(rng, 6) for k in (2, 3, 5)}
    dt_poly, low_poly = _random_poly(rng, 5), _random_poly(rng, 2)
    cos = _cos_projection(config)
    return [
        *(RowSpec(f"fdiff.identity_i.k{k}", f"poly deg 6, k={k}",
                  partial(_iterate_dev, poly, k), tol_abs=1e-12)
          for k, poly in iterate_polys.items()),
        RowSpec("fdiff.identity_ii.cubic", "f=t^3, k=2",
                partial(_nested_gap, lambda v: v ** 3, lambda v: 6.0 * v, 1.0, 0.5),
                tol_abs=1e-10),
        RowSpec("fdiff.identity_ii.exp", "f=e^{-t}, k=2",
                partial(_nested_gap, lambda v: math.exp(-v), lambda v: np.exp(-v), 0.4, 0.3),
                tol_abs=1e-8),
        *(RowSpec(f"fdiff.identity_iiia.k{k}", f"f=cos, k={k}", partial(_ds_dev, k),
                  tol_abs=1e-6) for k in (2, 3)),
        RowSpec("fdiff.identity_iiib.poly", "poly deg 5, j=2, k=3", partial(_dt_dev, dt_poly),
                tol_abs=1e-6),
        *(RowSpec(f"fdiff.semigroup_power.k{k}", "f=cos, t=0.3, x=0.7",
                  partial(_semigroup_power_dev, cos, k), tol_abs=1e-8) for k in (1, 2, 3)),
        RowSpec("fdiff.bound.sqrt", "f=t^0.5, k=1, delta=0.5",
                lambda: max(r.ratio for r in fd.difference_bound_probe(
                    lambda v: v ** 0.5, 1, 0.5, (0.5, 1.0, 2.0),
                    (lambda t: 0.1 * t, lambda t: 0.5 * t))),
                oracle=0.5, tol_rel=1e-9, check="bound"),
        RowSpec("fdiff.bound.exp", "f=e^{-t}, k=2, delta=0",
                lambda: max(r.ratio for r in fd.difference_bound_probe(
                    lambda v: np.exp(-v), 2, 0.0, (0.5, 1.0, 2.0), (0.1, 0.3))),
                oracle=1.0, check="bound"),
        RowSpec("fdiff.bound.lowdegree", "poly deg 2, k=3",
                lambda: max(abs(r.difference) for r in fd.difference_bound_probe(
                    low_poly, 3, 0.5, (0.5, 1.5), (0.2,))),
                tol_abs=1e-12),
    ]


# ----------------------------------------------------------------------------
# fractional: constants, eigenvalue table, representation (dis)agreement
# ----------------------------------------------------------------------------

def _c_beta(beta: float, k: int) -> dict:
    return {"computed": frac.c_beta_constant(beta, k),
            "oracle": frac.c_beta_closed_form(beta, k)}


def _c_beta_sign(beta: float, k: int) -> float:
    return -((-1.0) ** k) * frac.c_beta_constant(beta, k)


def _level_action(kind: str, beta: float, n: int, representation: str) -> float:
    """``apply_fractional`` on h_n, read back at level n."""
    h_n = HermiteExpansion(1, max(n, 1), {(n,): 1.0})
    spec = frac.FractionalSpec(kind, beta, representation)
    return frac.apply_fractional(h_n, spec).coefficient((n,))


def _eigenvalue(kind: str, beta: float, n: int, representation: str) -> dict:
    """One eigenvalue-table entry against ``eigenvalue_oracle``."""
    return {"computed": _level_action(kind, beta, n, representation),
            "oracle": frac.eigenvalue_oracle(kind, beta, n, representation)}


def _riesz_inverse_dev(e: HermiteExpansion, beta: float) -> float:
    """D^beta I_beta = Pi_0 on the spectral representation."""
    back = _spectral(_spectral(e, "riesz_potential", beta), "riesz_derivative", beta)
    return _coefficient_gap(back, remove_mean(e))


def _representation_agreement(kind: str) -> float:
    """Worst relative gap, integral vs spectral eigenvalues, beta = 0.5, n = 1..9."""
    worst = 0.0
    for n in range(1, 10):
        got = _level_action(kind, 0.5, n, "integral")
        want = frac.eigenvalue_oracle(kind, 0.5, n, "spectral")
        worst = max(worst, abs(got - want) / abs(want))
    return worst


def suite_fractional(config: SuiteConfig) -> list:
    specs = []
    for k, beta in ((1, 0.5), (2, 1.5), (3, 2.5)):
        specs.append(RowSpec(f"c_beta.k{k}.beta{beta}", f"k={k}, beta={beta}",
                             partial(_c_beta, beta, k), tol_rel=1e-7))
        specs.append(RowSpec(f"c_beta.sign.k{k}.beta{beta}", "(-1)^k c > 0",
                             partial(_c_beta_sign, beta, k), check="bound"))
    specs += [RowSpec(f"eigen.{rep}.{kind}.beta{beta}.n{n}",
                      f"kind={kind}, beta={beta}, n={n}",
                      partial(_eigenvalue, kind, beta, n, rep), tol_rel=tol_rel)
              for beta in (0.5, 1.0, 1.5, 2.5) for n in (1, 2, 4, 9) for kind in frac.KINDS
              for rep, tol_rel in (("integral", 1e-5), ("spectral", 1e-13))]

    # the two Bessel-potential representations act differently; exhibit it
    spectral = cache(lambda: frac.eigenvalue_oracle("bessel_potential", 1.0, 1, "spectral"))
    subordinated = cache(partial(_level_action, "bessel_potential", 1.0, 1, "integral"))
    rng = np.random.default_rng(config.seed)
    e = HermiteExpansion(1, 12, {(n,): float(rng.uniform(-1, 1)) for n in range(13)})
    return specs + [
        RowSpec("bessel.spectral.n1.beta1", "(n, beta) = (1, 1)", spectral,
                oracle=1.0 / math.sqrt(2.0), tol_rel=1e-12),
        RowSpec("bessel.subordinated.n1.beta1", "(n, beta) = (1, 1)", subordinated,
                oracle=0.5, tol_rel=1e-6),
        RowSpec("bessel.representation_gap.n1.beta1", "spectral minus subordinated",
                lambda: spectral() - subordinated(), oracle=1.0 / math.sqrt(2.0) - 0.5,
                tol_rel=1e-5),
        *(RowSpec(f"riesz.inverse_pair.beta{beta}", f"D^b I_b = Pi_0, beta={beta}, N=12",
                  partial(_riesz_inverse_dev, e, beta), tol_abs=1e-13) for beta in (0.5, 1.5)),
        RowSpec("bessel.composition", "J_0.7 J_0.8 = J_1.5, N=12",
                lambda: _coefficient_gap(
                    _spectral(_spectral(e, "bessel_potential", 0.7), "bessel_potential", 0.8),
                    _spectral(e, "bessel_potential", 1.5)),
                tol_abs=1e-14),
        *(RowSpec(f"riesz.representation_agreement.{kind}",
                  "beta=0.5, n=1..9, integral vs spectral",
                  partial(_representation_agreement, kind), tol_abs=1e-5)
          for kind in ("riesz_potential", "riesz_derivative")),
    ]


# ----------------------------------------------------------------------------
# lipschitz: seminorms, modulus, equivalence, inclusion
# ----------------------------------------------------------------------------

def _cos1():
    return catalog_function("cos:1")[1]


def _probe_input(name: str):
    """A catalog function for the probes, which take d=1 input."""
    entry, f = catalog_function(name)
    lip.check_probe_dimension(entry.dimension, f"catalog function {name!r}")
    return entry, f


def _a_alpha(config: SuiteConfig, f, alpha: float, t_grid=None, **kw) -> float:
    t_grid = config.t_grid() if t_grid is None else t_grid
    return lip.seminorm_estimate(f, alpha, t_grid, **config.probe_grid(), **kw).a_alpha


def _grid_stability(config: SuiteConfig) -> float:
    """Worst relative drift of A_alpha(cos) under two t-grid refinements."""
    t_grid = config.t_grid()
    base = _a_alpha(config, _cos1(), config.alpha)
    worst = 0.0
    for factor in (2, 4):
        fine = tuple(np.geomspace(t_grid[0], t_grid[-1], factor * len(t_grid)))
        refined = _a_alpha(config, _cos1(), config.alpha, fine)
        worst = max(worst, abs(refined - base) / max(base, refined))
    return worst


def _alpha_relation(config: SuiteConfig) -> float:
    """Minus the slack of A_0.9 >= A_0.5 min t^0.4 (n = 1 for both)."""
    lo = _a_alpha(config, _cos1(), 0.5)
    hi = _a_alpha(config, _cos1(), 0.9, n=1)
    return -(hi - lo * min(t ** 0.4 for t in config.t_grid()))


def _modulus(config: SuiteConfig, name: str) -> dict:
    entry, f = _probe_input(name)
    rep = lip.modulus_probe(f, config.alpha, t_grid=config.t_grid(), **config.probe_grid())
    flags = () if rep.ceiling_ok else ("ceiling 2^n ||f|| violated",)
    flags += () if entry.bounded else (_UNBOUNDED,)
    return {"computed": 0.0 if rep.ceiling_ok else 1.0, "flags": flags}


def _modulus_ratio(config: SuiteConfig) -> dict:
    rep = lip.modulus_probe(_cos1(), 0.5, t_grid=config.t_grid(), **config.probe_grid())
    return {"computed": max(r.ratio for r in rep.rows[:4]), "oracle": rep.max_ratio * 1.0001}


def _inclusion(config: SuiteConfig, name: str) -> dict:
    entry, f = _probe_input(name)
    rep = lip.inclusion_probe(f, 0.4, 0.8, config.t_grid(), **config.probe_grid())
    return {"computed": rep.a_alpha1, "oracle": rep.bound,
            "flags": () if entry.bounded else (_UNBOUNDED,)}


def _equivalence(config: SuiteConfig, name: str):
    return lip.derivative_equivalence_probe(catalog_function(name)[1], 0.5, 1, 2,
                                            config.t_grid(), **config.probe_grid())


def _homogeneity(config: SuiteConfig) -> dict:
    f = _cos1()
    return {"computed": _a_alpha(config, lambda x: 2.0 * f(x), config.alpha),
            "oracle": 2.0 * _a_alpha(config, f, config.alpha)}


def _derivative_fd(cos) -> dict:
    """d/dt P_t f spectrally against a central difference in t."""
    e, t, h, x = cos(), 0.5, 1e-4, 0.6
    up = eval_expansion(ph_apply(e, SemigroupQuery(t + h, "spectral")), x)
    dn = eval_expansion(ph_apply(e, SemigroupQuery(t - h, "spectral")), x)
    return {"computed": eval_expansion(ph_apply(e, SemigroupQuery(t, "spectral", 1)), x),
            "oracle": (up - dn) / (2 * h)}


def _decay_excess(config: SuiteConfig, cos) -> float:
    """Worst excess of sup |d/dt P_t f| over C/t for t >= 1, C empirical."""
    far = [t for t in config.t_grid() if t >= 1.0]
    sups = {t: lip.sup_norm_estimate(ph_apply(cos(), SemigroupQuery(t, "spectral", 1)),
                                     config.x_radius, config.x_count).value for t in far}
    c_emp = max(t * sups[t] for t in far)
    return max(sups[t] - c_emp / t for t in far)


def suite_lipschitz(config: SuiteConfig) -> list:
    alpha = config.alpha
    cos = _cos_projection(config)
    equivalence = cache(partial(_equivalence, config, "cos:1"))
    hi = lip.COMPARABILITY_WINDOW[1]
    return [
        RowSpec("lip.seminorm.const", "f=1",
                lambda: _a_alpha(config, catalog_function("const:1")[1], alpha),
                tol_abs=1e-10),
        RowSpec("lip.seminorm.cos.grid_stability", f"f=cos, alpha={alpha}, two refinements",
                partial(_grid_stability, config), oracle=0.10, check="bound"),
        RowSpec("lip.weighting.alpha_relation", "A_0.9 >= A_0.5 * min t^0.4 on shared rows",
                partial(_alpha_relation, config), tol_abs=1e-12, check="bound"),
        *(RowSpec(f"lip.modulus.{name}", f"alpha={alpha}", partial(_modulus, config, name))
          for name in config.functions),
        RowSpec("lip.modulus.cos.ratio_bounded", "||P_t f - f||/t^0.5 as t -> 0",
                partial(_modulus_ratio, config), check="bound"),
        RowSpec("lip.equivalence.cos.upper", "A_k/A_l, k=1, l=2",
                lambda: equivalence().ratio, oracle=hi, check="bound"),
        RowSpec("lip.equivalence.cos.lower", "A_l/A_k, k=1, l=2",
                lambda: 1.0 / equivalence().ratio, oracle=hi, check="bound"),
        RowSpec("lip.equivalence.const.exact_zero", "both zero",
                lambda: 1.0 if _equivalence(config, "const:1").exact_zero else 0.0,
                oracle=1.0),
        RowSpec("lip.homogeneity", "A(2f) = 2 A(f)",
                partial(_homogeneity, config), tol_rel=1e-12),
        *(RowSpec(f"lip.inclusion.{name}", "alpha 0.4 <- 0.8",
                  partial(_inclusion, config, name), tol_rel=1e-12, tol_abs=1e-12,
                  check="bound")
          for name in config.functions),
        RowSpec("lip.spectral_derivative.fd_consistency", "f=cos, t=0.5, x=0.6",
                partial(_derivative_fd, cos), tol_rel=1e-5),
        RowSpec("lip.remark.decay_away_from_zero", "sup <= C/t for t >= 1, C empirical",
                partial(_decay_excess, config, cos), tol_abs=1e-12, check="bound"),
    ]


# ----------------------------------------------------------------------------
# boundedness: mapping probes for the four fractional operators
# ----------------------------------------------------------------------------

def _bounded(config: SuiteConfig, kind: str, beta: float, alpha: float,
             representation: str, name: str) -> dict:
    spec = frac.FractionalSpec(kind=kind, beta=beta, representation=representation)
    rep = lip.operator_boundedness_probe(spec, [(name, _probe_input(name)[1])], alpha,
                                         config.t_grid(), **config.probe_grid())
    row = rep.rows[0]
    flags = ("one-sided: L1-catalog estimator reused",) if kind == "riesz_potential" else ()
    return {"computed": row.drift, "flags": flags + row.flags,
            "inputs": f"target alpha {rep.target_alpha}; ratio {row.ratio:.4g}"}


def _const_image(config: SuiteConfig, const, kind: str, beta: float) -> float:
    """A_0.5 of J(1) or D(1): the operator maps constants to constants."""
    return lip.seminorm_estimate(_spectral(const(), kind, beta), 0.5, config.t_grid(),
                                 config.x_radius, degree_cap=8,
                                 grid_points=config.x_count).a_alpha


def suite_boundedness(config: SuiteConfig) -> list:
    probes = [
        ("bessel_potential", 0.5, 0.4, "spectral"),
        ("riesz_derivative", 0.3, 0.9, "spectral"),
        ("bessel_derivative", 0.3, 0.9, "spectral"),
        ("riesz_potential", 0.5, 0.5, "spectral"),
    ]
    user_probe = (config.kind, config.beta, config.alpha, config.representation)
    if user_probe not in probes:
        probes.append(user_probe)
    const = cache(
        lambda: project(catalog_function("const:1")[1], 1, 8, gauss_hermite_rule(32)))
    return [
        # a non-spectral probe names its representation: the rest may repeat a built-in one
        *(RowSpec(f"bounded.{kind}{'' if rep == 'spectral' else '.' + rep}"
                  f".beta{beta}.alpha{alpha}.{name}", f"{rep} probe",
                  partial(_bounded, config, kind, beta, alpha, rep, name),
                  oracle=lip.STABILITY_DRIFT, check="bound")
          for kind, beta, alpha, rep in probes for name in config.functions),
        *(RowSpec(f"bounded.const_image.{kind}", f"f=1, kind={kind}",
                  partial(_const_image, config, const, kind, beta), tol_abs=1e-10)
          for kind, beta in (("riesz_derivative", 0.3), ("bessel_potential", 0.5))),
    ]


# ----------------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------------

_SUITE_BUILDERS = {
    "eigen": suite_eigen,
    "kernel-bound": suite_kernel_bound,
    "forward-diff": suite_forward_diff,
    "fractional": suite_fractional,
    "lipschitz": suite_lipschitz,
    "boundedness": suite_boundedness,
}


def run_suite(suite: str, config: SuiteConfig | None = None) -> VerificationReport:
    """Execute a named verification suite (or all of them) deterministically."""
    if config is None:
        config = SuiteConfig()
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    names = list(_SUITE_BUILDERS) if suite == "all" else [suite]
    rows = [spec.evaluate() for name in names for spec in _SUITE_BUILDERS[name](config)]
    cfg = asdict(config)
    cfg["functions"] = list(config.functions)
    return make_report(suite, cfg, rows)
