"""Verification suites: named checks over the library's operations.

Each suite emits ReportRows comparing computed values against independent
oracles (closed forms, cross-representations, finite differences) or against
stated bounds.  Row errors are recorded as failed rows; a suite never aborts.
All suites are deterministic for a fixed config (the only randomness is a
seeded generator for random-polynomial identities).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

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

    def t_grid(self) -> tuple:
        return tuple(np.geomspace(self.t_min, self.t_max, self.t_count))


def _guard(rows: list, name: str, inputs: str, fn) -> None:
    try:
        out = fn()
    except Exception as exc:  # recorded, never aborts the suite
        rows.append(failed_row(name, inputs, f"{type(exc).__name__}: {exc}"))
        return
    if isinstance(out, ReportRow):
        rows.append(out)
    else:
        rows.extend(out)


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


# ----------------------------------------------------------------------------
# eigen: kernel / subordination actions vs spectral eigenvalues
# ----------------------------------------------------------------------------

def suite_eigen(config: SuiteConfig) -> list:
    rows: list = []
    tol = config.tol
    times = (0.25, 1.0)

    for d in (1, 2):
        grid = _eigen_grid(d)
        indices = [nu for nu in graded_indices(d, 4)]
        for t in times:
            for nu in indices:
                n = sum(nu)
                h_vals = hermite_eval(nu, grid)
                label = "".join(map(str, nu))

                def ou_row(nu=nu, n=n, t=t, d=d, grid=grid, h_vals=h_vals, label=label):
                    op = ou_apply(lambda p, nu=nu: hermite_eval(nu, p),
                                  SemigroupQuery(t, "kernel"), d=d)
                    dev = _rel_dev(np.asarray(op(grid)), math.exp(-t * n) * h_vals)
                    return ReportRow(name=f"ou.kernel.d{d}.nu{label}.t{t}",
                                     inputs=f"d={d} nu={nu} t={t}", computed=dev,
                                     oracle=0.0, tol_rel=0.0, tol_abs=tol)

                _guard(rows, f"ou.kernel.d{d}.nu{label}.t{t}", f"d={d}", ou_row)

                def ph_sub_row(nu=nu, n=n, t=t, d=d, grid=grid, h_vals=h_vals, label=label):
                    want = math.exp(-math.sqrt(n) * t) * h_vals
                    if d == 1:
                        op = ph_apply(lambda p, nu=nu: hermite_eval(nu, p),
                                      SemigroupQuery(t, "subordination"), d=1, tol=1e-9)
                        got = np.asarray(op(grid))
                    else:
                        e = HermiteExpansion(d, 4, {nu: 1.0})
                        out = ph_apply(e, SemigroupQuery(t, "subordination"), tol=1e-9)
                        got = np.asarray(eval_expansion(out, grid))
                    return ReportRow(name=f"ph.subordination.d{d}.nu{label}.t{t}",
                                     inputs=f"d={d} nu={nu} t={t}",
                                     computed=_rel_dev(got, want),
                                     oracle=0.0, tol_rel=0.0, tol_abs=tol)

                _guard(rows, f"ph.subordination.d{d}.nu{label}.t{t}", f"d={d}", ph_sub_row)

                if d == 1:
                    def ph_kernel_row(nu=nu, n=n, t=t, grid=grid, h_vals=h_vals):
                        op = ph_apply(lambda p, nu=nu: hermite_eval(nu, p),
                                      SemigroupQuery(t, "kernel"), d=1, tol=1e-9)
                        got = np.asarray(op(grid))
                        want = math.exp(-math.sqrt(n) * t) * h_vals
                        return ReportRow(name=f"ph.kernel.d1.nu{nu[0]}.t{t}",
                                         inputs=f"d=1 nu={nu} t={t}",
                                         computed=_rel_dev(got, want),
                                         oracle=0.0, tol_rel=0.0, tol_abs=tol)

                    _guard(rows, f"ph.kernel.d1.nu{nu[0]}.t{t}", "d=1", ph_kernel_row)

    # conservation and limits
    for t in times:
        _guard(rows, f"ou.kernel.conservation.t{t}", "f=1", lambda t=t: ReportRow(
            name=f"ou.kernel.conservation.t{t}", inputs=f"T_t 1, t={t}",
            computed=float(ou_apply(lambda p: np.ones(p.shape[0]),
                                    SemigroupQuery(t, "kernel"), d=1)(np.zeros((1, 1)))[0]),
            oracle=1.0, tol_rel=1e-7, tol_abs=0.0))
        _guard(rows, f"ph.kernel.conservation.t{t}", "f=1", lambda t=t: ReportRow(
            name=f"ph.kernel.conservation.t{t}", inputs=f"P_t 1, t={t}",
            computed=float(ph_apply(lambda p: np.ones(p.shape[0]),
                                    SemigroupQuery(t, "kernel"), d=1, tol=1e-9)(np.zeros((1, 1)))[0]),
            oracle=1.0, tol_rel=1e-7, tol_abs=0.0))

    def mehler_norm_row():
        val = mehler_kernel(math.log(2.0), 0.0, 0.0)
        return ReportRow(name="mehler.value.exp_t_half", inputs="e^{-t}=1/2, x=y=0",
                         computed=val, oracle=1.0 / (math.sqrt(math.pi) * math.sqrt(0.75)),
                         tol_rel=1e-12, tol_abs=0.0)

    _guard(rows, "mehler.value.exp_t_half", "", mehler_norm_row)

    def limit_rows():
        out = []
        e = project(lambda p: np.cos(p[:, 0]), 1, config.degree_cap,
                    gauss_hermite_rule(config.nodes))
        grid = _eigen_grid(1)
        f_vals = np.cos(grid[:, 0])
        # t -> infinity: P_t f approaches the gamma-mean of f
        far = eval_expansion(ph_apply(e, SemigroupQuery(20.0, "spectral")), grid)
        out.append(ReportRow(name="ph.limit.t_infinity", inputs="f=cos, t=20",
                             computed=float(np.max(np.abs(far - math.exp(-0.25)))),
                             oracle=0.0, tol_rel=0.0, tol_abs=1e-4))
        # t -> 0: grid deviation decreases monotonically
        norms = []
        for t in (0.4, 0.2, 0.1, 0.05):
            vals = eval_expansion(ph_apply(e, SemigroupQuery(t, "spectral")), grid)
            norms.append(float(np.max(np.abs(vals - f_vals))))
        worst = max(norms[i + 1] / norms[i] for i in range(len(norms) - 1))
        out.append(ReportRow(name="ph.limit.t_zero.monotone", inputs="f=cos",
                             computed=worst, oracle=1.0, tol_rel=0.0, tol_abs=0.0,
                             check="bound"))
        return out

    _guard(rows, "ph.limits", "f=cos", limit_rows)

    def semigroup_law_rows():
        out = []
        e = project(lambda p: np.cos(p[:, 0]), 1, config.degree_cap,
                    gauss_hermite_rule(config.nodes))
        t1, t2 = 0.3, 0.45
        two = ph_apply(ph_apply(e, SemigroupQuery(t1, "spectral")),
                       SemigroupQuery(t2, "spectral"))
        one = ph_apply(e, SemigroupQuery(t1 + t2, "spectral"))
        dev = max(abs(two.coefficients[nu] - one.coefficients[nu])
                  for nu in one.coefficients)
        out.append(ReportRow(name="ph.semigroup_law.spectral", inputs="t=0.3+0.45",
                             computed=dev, oracle=0.0, tol_rel=0.0, tol_abs=1e-14))
        # non-spectral routes: inner subordination under an outer kernel
        # application at a few points, plus one strict kernel-of-kernel point
        f = lambda p: np.cos(p[:, 0])
        direct = ph_apply(f, SemigroupQuery(t1 + t2, "kernel"), d=1, tol=1e-8)
        inner_sub = ph_apply(f, SemigroupQuery(t2, "subordination"), d=1, tol=1e-8)
        nested = ph_apply(inner_sub, SemigroupQuery(t1, "kernel"), d=1, tol=1e-8)
        xs = np.array([[-1.0], [0.0], [0.8]])
        dev = float(np.max(np.abs(np.asarray(nested(xs)) - np.asarray(direct(xs)))))
        out.append(ReportRow(name="ph.semigroup_law.kernel_subordination",
                             inputs="t=0.3+0.45, f=cos",
                             computed=dev, oracle=0.0, tol_rel=0.0, tol_abs=1e-6))
        inner_k = ph_apply(f, SemigroupQuery(t2, "kernel"), d=1, tol=1e-7)
        nested_k = ph_apply(inner_k, SemigroupQuery(t1, "kernel"), d=1, tol=1e-7)
        x0 = np.array([[0.8]])
        dev = abs(float(np.asarray(nested_k(x0))[0]) - float(np.asarray(direct(x0))[0]))
        out.append(ReportRow(name="ph.semigroup_law.kernel_kernel",
                             inputs="t=0.3+0.45, f=cos, x=0.8",
                             computed=dev, oracle=0.0, tol_rel=0.0, tol_abs=1e-6))
        return out

    _guard(rows, "ph.semigroup_law", "", semigroup_law_rows)
    return rows


# ----------------------------------------------------------------------------
# kernel-bound: L^1 norms of kernel time derivatives
# ----------------------------------------------------------------------------

def suite_kernel_bound(config: SuiteConfig) -> list:
    rows: list = []
    t_grid = (0.1, 0.5, 1.0, 2.0)
    products_true = {}
    for t in t_grid:
        def l1_row(t=t):
            value = kernel_derivative_l1(t, 0.0, 1).value
            products_true[t] = t * value
            return ReportRow(name=f"l1.k1.bound.t{t}", inputs=f"t={t}, x=0, k=1",
                             computed=t * value, oracle=2.0, tol_rel=0.05,
                             tol_abs=0.0, check="bound")

        _guard(rows, f"l1.k1.bound.t{t}", f"t={t}", l1_row)

    def majorant_rows():
        out = []
        prods = {t: t * derivative_weight_mass(t, 1) for t in t_grid}
        for t in t_grid:
            # both readings of the split factor: 1 + t^2/2s gives 2/t,
            # 1 + t^2/4s gives 1.5/t; the |.|-majorant sits below either.
            out.append(ReportRow(name=f"l1.k1.majorant.t{t}",
                                 inputs=f"t={t}, reading A bound 2, reading B bound 1.5",
                                 computed=prods[t], oracle=1.5, tol_rel=0.05,
                                 tol_abs=0.0, check="bound"))
        spread = max(prods.values()) / min(prods.values())
        out.append(ReportRow(name="l1.k1.majorant.scaling", inputs=f"t in {t_grid}",
                             computed=spread, oracle=3.0, tol_rel=0.0, tol_abs=0.0,
                             check="bound"))
        return out

    _guard(rows, "l1.k1.majorant", "", majorant_rows)

    def true_spread_row():
        spread = max(products_true.values()) / min(products_true.values())
        return ReportRow(name="l1.k1.true_value.scaling", inputs=f"t in {t_grid}",
                         computed=spread, oracle=10.0, tol_rel=0.0, tol_abs=0.0,
                         check="bound",
                         flags=("informational: exact scale-invariance holds for the "
                                "majorant row; the true value decays faster for t >= 1",))

    _guard(rows, "l1.k1.true_value.scaling", "", true_spread_row)

    for t in t_grid:
        def l1_k2_row(t=t):
            value = kernel_derivative_l1(t, 0.0, 2).value
            return ReportRow(name=f"l1.k2.bound.t{t}", inputs=f"t={t}, x=0, k=2",
                             computed=t * t * value, oracle=16.0, tol_rel=0.05,
                             tol_abs=0.0, check="bound")

        _guard(rows, f"l1.k2.bound.t{t}", f"t={t}", l1_k2_row)

    def majorant_k2_row():
        prods = {t: t * t * derivative_weight_mass(t, 2) for t in t_grid}
        spread = max(prods.values()) / min(prods.values())
        return ReportRow(name="l1.k2.majorant.scaling", inputs=f"t in {t_grid}",
                         computed=spread, oracle=3.0, tol_rel=0.0, tol_abs=0.0,
                         check="bound")

    _guard(rows, "l1.k2.majorant.scaling", "", majorant_k2_row)
    return rows


# ----------------------------------------------------------------------------
# forward-diff: identities (i), (ii), (iii) and the semigroup cross-check
# ----------------------------------------------------------------------------

def _random_poly(rng, degree: int):
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    return np.polynomial.Polynomial(coeffs)


def suite_forward_diff(config: SuiteConfig) -> list:
    rows: list = []
    rng = np.random.default_rng(config.seed)

    def iterate_rows():
        out = []
        for k in (2, 3, 5):
            poly = _random_poly(rng, 6)
            t, s = 0.7, 0.31
            whole = fd.forward_difference(poly, fd.ForwardDifferenceQuery(t, s, k))
            inner = lambda tau, poly=poly, s=s, k=k: fd.forward_difference(
                poly, fd.ForwardDifferenceQuery(tau, s, k - 1))
            nested = fd.forward_difference(inner, fd.ForwardDifferenceQuery(t, s, 1))
            dev = abs(whole - nested) / max(abs(whole), 1.0)
            out.append(ReportRow(name=f"fdiff.identity_i.k{k}", inputs=f"poly deg 6, k={k}",
                                 computed=dev, oracle=0.0, tol_rel=0.0, tol_abs=1e-12))
        return out

    _guard(rows, "fdiff.identity_i", "", iterate_rows)

    def nested_rows():
        out = []
        q = fd.ForwardDifferenceQuery(1.0, 0.5, 2)
        direct = fd.forward_difference(lambda v: v ** 3, q)
        nested = fd.nested_integral_form(lambda v: 6.0 * v, q)
        out.append(ReportRow(name="fdiff.identity_ii.cubic", inputs="f=t^3, k=2",
                             computed=abs(direct - nested), oracle=0.0,
                             tol_rel=0.0, tol_abs=1e-10))
        q = fd.ForwardDifferenceQuery(0.4, 0.3, 2)
        direct = fd.forward_difference(lambda v: math.exp(-v), q)
        nested = fd.nested_integral_form(lambda v: np.exp(-v), q)
        out.append(ReportRow(name="fdiff.identity_ii.exp", inputs="f=e^{-t}, k=2",
                             computed=abs(direct - nested), oracle=0.0,
                             tol_rel=0.0, tol_abs=1e-8))
        return out

    _guard(rows, "fdiff.identity_ii", "", nested_rows)

    def ds_rows():
        out = []
        for k in (2, 3):
            t, s, h = 0.5, 0.4, 1e-5
            up = fd.forward_difference(np.cos, fd.ForwardDifferenceQuery(t, s + h, k))
            dn = fd.forward_difference(np.cos, fd.ForwardDifferenceQuery(t, s - h, k))
            lhs = (up - dn) / (2 * h)
            rhs = k * fd.forward_difference(
                lambda v: -math.sin(v), fd.ForwardDifferenceQuery(t + s, s, k - 1)) \
                if k > 1 else k * -math.sin(t + s)
            out.append(ReportRow(name=f"fdiff.identity_iiia.k{k}", inputs=f"f=cos, k={k}",
                                 computed=abs(lhs - rhs) / max(abs(rhs), 1e-3),
                                 oracle=0.0, tol_rel=0.0, tol_abs=1e-6))
        return out

    _guard(rows, "fdiff.identity_iiia", "", ds_rows)

    def dt_rows():
        out = []
        poly = _random_poly(rng, 5)
        dpoly = poly.deriv(2)
        t, s, k = 0.9, 0.2, 3
        h = 1e-3
        vals = [fd.forward_difference(poly, fd.ForwardDifferenceQuery(t + i * h, s, k))
                for i in (-1, 0, 1)]
        lhs = (vals[2] - 2 * vals[1] + vals[0]) / h ** 2
        rhs = fd.forward_difference(dpoly, fd.ForwardDifferenceQuery(t, s, k))
        out.append(ReportRow(name="fdiff.identity_iiib.poly", inputs="poly deg 5, j=2, k=3",
                             computed=abs(lhs - rhs) / max(abs(rhs), 1.0), oracle=0.0,
                             tol_rel=0.0, tol_abs=1e-6))
        return out

    _guard(rows, "fdiff.identity_iiib.poly", "", dt_rows)

    def semigroup_cross_rows():
        out = []
        e = project(lambda p: np.cos(p[:, 0]), 1, config.degree_cap,
                    gauss_hermite_rule(config.nodes))
        x = 0.7
        for k in (1, 2, 3):
            t = 0.3
            direct = eval_expansion(
                scale_by_level(e, lambda m, t=t, k=k: math.expm1(-math.sqrt(m) * t) ** k), x)
            u = lambda tau, e=e, x=x: eval_expansion(
                ph_apply(e, SemigroupQuery(float(tau), "spectral")), x)
            delta = fd.forward_difference(u, fd.ForwardDifferenceQuery(0.0, t, k))
            out.append(ReportRow(name=f"fdiff.semigroup_power.k{k}",
                                 inputs=f"f=cos, t={t}, x={x}",
                                 computed=abs(direct - delta) / max(abs(direct), 1e-12),
                                 oracle=0.0, tol_rel=0.0, tol_abs=1e-8))
        return out

    _guard(rows, "fdiff.semigroup_power", "", semigroup_cross_rows)

    def bound_rows():
        out = []
        probe = fd.difference_bound_probe(lambda v: v ** 0.5, 1, 0.5,
                                          (0.5, 1.0, 2.0),
                                          (lambda t: 0.1 * t, lambda t: 0.5 * t))
        out.append(ReportRow(name="fdiff.bound.sqrt", inputs="f=t^0.5, k=1, delta=0.5",
                             computed=max(r.ratio for r in probe), oracle=0.5,
                             tol_rel=1e-9, tol_abs=0.0, check="bound"))
        probe = fd.difference_bound_probe(lambda v: np.exp(-v), 2, 0.0,
                                          (0.5, 1.0, 2.0), (0.1, 0.3))
        out.append(ReportRow(name="fdiff.bound.exp", inputs="f=e^{-t}, k=2, delta=0",
                             computed=max(r.ratio for r in probe), oracle=1.0,
                             tol_rel=0.0, tol_abs=0.0, check="bound"))
        poly = _random_poly(rng, 2)
        probe = fd.difference_bound_probe(poly, 3, 0.5, (0.5, 1.5), (0.2,))
        out.append(ReportRow(name="fdiff.bound.lowdegree", inputs="poly deg 2, k=3",
                             computed=max(abs(r.difference) for r in probe), oracle=0.0,
                             tol_rel=0.0, tol_abs=1e-12))
        return out

    _guard(rows, "fdiff.bounds", "", bound_rows)
    return rows


# ----------------------------------------------------------------------------
# fractional: constants, eigenvalue table, representation (dis)agreement
# ----------------------------------------------------------------------------

def suite_fractional(config: SuiteConfig) -> list:
    rows: list = []

    for k, beta in ((1, 0.5), (2, 1.5), (3, 2.5)):
        def c_row(k=k, beta=beta):
            got = frac.c_beta_constant(beta, k)
            want = frac.c_beta_closed_form(beta, k)
            return ReportRow(name=f"c_beta.k{k}.beta{beta}", inputs=f"k={k}, beta={beta}",
                             computed=got, oracle=want, tol_rel=1e-7, tol_abs=0.0)

        _guard(rows, f"c_beta.k{k}.beta{beta}", f"beta={beta}", c_row)

        def sign_row(k=k, beta=beta):
            got = frac.c_beta_constant(beta, k)
            return ReportRow(name=f"c_beta.sign.k{k}.beta{beta}", inputs=f"(-1)^k c > 0",
                             computed=-((-1.0) ** k) * got, oracle=0.0,
                             tol_rel=0.0, tol_abs=0.0, check="bound")

        _guard(rows, f"c_beta.sign.k{k}.beta{beta}", f"beta={beta}", sign_row)

    for beta in (0.5, 1.0, 1.5):
        for n in (1, 2, 4, 9):
            for kind in frac.KINDS:
                def table_row(kind=kind, beta=beta, n=n):
                    spec = frac.FractionalSpec(kind=kind, beta=beta,
                                               representation="integral", tol=1e-9)
                    got = frac._integral_eigenvalue(kind, beta, spec.k, n, spec.tol)
                    want = frac.eigenvalue_oracle(kind, beta, n, "integral")
                    return ReportRow(name=f"eigen.integral.{kind}.beta{beta}.n{n}",
                                     inputs=f"kind={kind}, beta={beta}, n={n}",
                                     computed=got, oracle=want, tol_rel=1e-5, tol_abs=0.0)

                _guard(rows, f"eigen.integral.{kind}.beta{beta}.n{n}", "", table_row)

                def spectral_row(kind=kind, beta=beta, n=n):
                    e = HermiteExpansion(1, max(n, 1), {(n,): 1.0})
                    spec = frac.FractionalSpec(kind=kind, beta=beta,
                                               representation="spectral")
                    out = frac.apply_fractional(e, spec)
                    got = out.coefficients[(n,)]
                    want = frac.eigenvalue_oracle(kind, beta, n, "spectral")
                    return ReportRow(name=f"eigen.spectral.{kind}.beta{beta}.n{n}",
                                     inputs=f"kind={kind}, beta={beta}, n={n}",
                                     computed=got, oracle=want, tol_rel=1e-13, tol_abs=0.0)

                _guard(rows, f"eigen.spectral.{kind}.beta{beta}.n{n}", "", spectral_row)

    def mismatch_rows():
        # the two Bessel-potential representations act differently; exhibit it
        out = []
        spectral = frac.eigenvalue_oracle("bessel_potential", 1.0, 1, "spectral")
        integral = frac._integral_eigenvalue("bessel_potential", 1.0, 2, 1, 1e-9)
        out.append(ReportRow(name="bessel.spectral.n1.beta1", inputs="(n, beta) = (1, 1)",
                             computed=spectral, oracle=1.0 / math.sqrt(2.0),
                             tol_rel=1e-12, tol_abs=0.0))
        out.append(ReportRow(name="bessel.subordinated.n1.beta1", inputs="(n, beta) = (1, 1)",
                             computed=integral, oracle=0.5, tol_rel=1e-6, tol_abs=0.0))
        out.append(ReportRow(name="bessel.representation_gap.n1.beta1",
                             inputs="spectral minus subordinated",
                             computed=spectral - integral,
                             oracle=1.0 / math.sqrt(2.0) - 0.5,
                             tol_rel=1e-5, tol_abs=0.0))
        return out

    _guard(rows, "bessel.mismatch", "", mismatch_rows)

    def inverse_rows():
        out = []
        rng = np.random.default_rng(config.seed)
        coeffs = {(n,): float(rng.uniform(-1, 1)) for n in range(13)}
        e = HermiteExpansion(1, 12, coeffs)
        for beta in (0.5, 1.5):
            pot = frac.apply_fractional(
                e, frac.FractionalSpec("riesz_potential", beta, representation="spectral"))
            back = frac.apply_fractional(
                pot, frac.FractionalSpec("riesz_derivative", beta, representation="spectral"))
            want = remove_mean(e)
            dev = max(abs(back.coefficients[nu] - want.coefficients[nu])
                      for nu in want.coefficients)
            out.append(ReportRow(name=f"riesz.inverse_pair.beta{beta}",
                                 inputs=f"D^b I_b = Pi_0, beta={beta}, N=12",
                                 computed=dev, oracle=0.0, tol_rel=0.0, tol_abs=1e-13))
        j1 = frac.apply_fractional(
            e, frac.FractionalSpec("bessel_potential", 0.7, representation="spectral"))
        j2 = frac.apply_fractional(
            j1, frac.FractionalSpec("bessel_potential", 0.8, representation="spectral"))
        j12 = frac.apply_fractional(
            e, frac.FractionalSpec("bessel_potential", 1.5, representation="spectral"))
        dev = max(abs(j2.coefficients[nu] - j12.coefficients[nu])
                  for nu in j12.coefficients)
        out.append(ReportRow(name="bessel.composition", inputs="J_0.7 J_0.8 = J_1.5, N=12",
                             computed=dev, oracle=0.0, tol_rel=0.0, tol_abs=1e-14))
        return out

    _guard(rows, "fractional.algebra", "", inverse_rows)

    def agreement_rows():
        out = []
        for kind in ("riesz_potential", "riesz_derivative"):
            worst = 0.0
            for n in range(1, 10):
                spec = frac.FractionalSpec(kind=kind, beta=0.5, representation="integral",
                                           tol=1e-9)
                got = frac._integral_eigenvalue(kind, 0.5, spec.k, n, spec.tol)
                want = frac.eigenvalue_oracle(kind, 0.5, n, "spectral")
                worst = max(worst, abs(got - want) / abs(want))
            out.append(ReportRow(name=f"riesz.representation_agreement.{kind}",
                                 inputs="beta=0.5, n=1..9, integral vs spectral",
                                 computed=worst, oracle=0.0, tol_rel=0.0, tol_abs=1e-5))
        return out

    _guard(rows, "riesz.agreement", "", agreement_rows)
    return rows


# ----------------------------------------------------------------------------
# lipschitz: seminorms, modulus, equivalence, inclusion
# ----------------------------------------------------------------------------

def suite_lipschitz(config: SuiteConfig) -> list:
    rows: list = []
    t_grid = config.t_grid()
    alpha = config.alpha

    _guard(rows, "lip.seminorm.const", "f=const:1", lambda: ReportRow(
        name="lip.seminorm.const", inputs="f=1",
        computed=lip.seminorm_estimate(catalog_function("const:1")[1], alpha,
                                       t_grid, config.x_radius,
                                       degree_cap=config.degree_cap,
                                       grid_points=config.x_count).a_alpha,
        oracle=0.0, tol_rel=0.0, tol_abs=1e-10))

    def cos_stability_row():
        f = catalog_function("cos:1")[1]
        base = lip.seminorm_estimate(f, alpha, t_grid, config.x_radius,
                                     degree_cap=config.degree_cap,
                                     grid_points=config.x_count).a_alpha
        worst = 0.0
        for factor in (2, 4):
            fine = tuple(np.geomspace(t_grid[0], t_grid[-1], factor * len(t_grid)))
            refined = lip.seminorm_estimate(f, alpha, fine, config.x_radius,
                                            degree_cap=config.degree_cap,
                                            grid_points=config.x_count).a_alpha
            worst = max(worst, abs(refined - base) / max(base, refined))
        return ReportRow(name="lip.seminorm.cos.grid_stability",
                         inputs=f"f=cos, alpha={alpha}, two refinements",
                         computed=worst, oracle=0.10, tol_rel=0.0, tol_abs=0.0,
                         check="bound")

    _guard(rows, "lip.seminorm.cos.grid_stability", "", cos_stability_row)

    def weight_consistency_row():
        f = catalog_function("cos:1")[1]
        lo = lip.seminorm_estimate(f, 0.5, t_grid, config.x_radius,
                                   degree_cap=config.degree_cap,
                                   grid_points=config.x_count)
        hi = lip.seminorm_estimate(f, 0.9, t_grid, config.x_radius, n=1,
                                   degree_cap=config.degree_cap,
                                   grid_points=config.x_count)
        floor = hi.a_alpha - lo.a_alpha * min(t ** 0.4 for t in t_grid)
        return ReportRow(name="lip.weighting.alpha_relation",
                         inputs="A_0.9 >= A_0.5 * min t^0.4 on shared rows",
                         computed=-floor, oracle=0.0, tol_rel=0.0, tol_abs=1e-12,
                         check="bound")

    _guard(rows, "lip.weighting.alpha_relation", "", weight_consistency_row)

    for name in config.functions:
        def modulus_row(name=name):
            entry, f = catalog_function(name)
            rep = lip.modulus_probe(f, alpha, t_grid=t_grid, x_radius=config.x_radius,
                                    degree_cap=config.degree_cap,
                                    grid_points=config.x_count)
            flags = () if rep.ceiling_ok else ("ceiling 2^n ||f|| violated",)
            if not entry.bounded:
                flags = flags + ("unbounded catalog entry: sup-norm rows are "
                                 "grid proxies only",)
            return ReportRow(name=f"lip.modulus.{name}", inputs=f"alpha={alpha}",
                             computed=0.0 if rep.ceiling_ok else 1.0, oracle=0.0,
                             tol_rel=0.0, tol_abs=0.0, flags=flags)

        _guard(rows, f"lip.modulus.{name}", "", modulus_row)

    def modulus_ratio_row():
        f = catalog_function("cos:1")[1]
        rep = lip.modulus_probe(f, 0.5, t_grid=t_grid, x_radius=config.x_radius,
                                degree_cap=config.degree_cap,
                                grid_points=config.x_count)
        small_t = [r.ratio for r in rep.rows[:4]]
        return ReportRow(name="lip.modulus.cos.ratio_bounded",
                         inputs="||P_t f - f||/t^0.5 as t -> 0",
                         computed=max(small_t), oracle=rep.max_ratio * 1.0001,
                         tol_rel=0.0, tol_abs=0.0, check="bound")

    _guard(rows, "lip.modulus.cos.ratio_bounded", "", modulus_ratio_row)

    def equivalence_rows():
        out = []
        rep = lip.derivative_equivalence_probe(catalog_function("cos:1")[1], 0.5, 1, 2,
                                               t_grid, x_radius=config.x_radius,
                                               degree_cap=config.degree_cap,
                                               grid_points=config.x_count)
        lo, hi = lip.COMPARABILITY_WINDOW
        out.append(ReportRow(name="lip.equivalence.cos.upper", inputs="A_k/A_l, k=1, l=2",
                             computed=rep.ratio, oracle=hi, tol_rel=0.0, tol_abs=0.0,
                             check="bound"))
        out.append(ReportRow(name="lip.equivalence.cos.lower", inputs="A_l/A_k, k=1, l=2",
                             computed=1.0 / rep.ratio, oracle=hi, tol_rel=0.0,
                             tol_abs=0.0, check="bound"))
        repc = lip.derivative_equivalence_probe(catalog_function("const:1")[1], 0.5, 1, 2,
                                                t_grid, x_radius=config.x_radius,
                                                degree_cap=config.degree_cap,
                                                grid_points=config.x_count)
        out.append(ReportRow(name="lip.equivalence.const.exact_zero", inputs="both zero",
                             computed=1.0 if repc.exact_zero else 0.0, oracle=1.0,
                             tol_rel=0.0, tol_abs=0.0))
        return out

    _guard(rows, "lip.equivalence", "", equivalence_rows)

    def homogeneity_row():
        f = catalog_function("cos:1")[1]
        one = lip.seminorm_estimate(f, alpha, t_grid, config.x_radius,
                                    degree_cap=config.degree_cap,
                                    grid_points=config.x_count).a_alpha
        two = lip.seminorm_estimate(lambda x: 2.0 * f(x), alpha, t_grid,
                                    config.x_radius, degree_cap=config.degree_cap,
                                    grid_points=config.x_count).a_alpha
        return ReportRow(name="lip.homogeneity", inputs="A(2f) = 2 A(f)",
                         computed=two, oracle=2.0 * one, tol_rel=1e-12, tol_abs=0.0)

    _guard(rows, "lip.homogeneity", "", homogeneity_row)

    for name in config.functions:
        def inclusion_row(name=name):
            entry, f = catalog_function(name)
            rep = lip.inclusion_probe(f, 0.4, 0.8, t_grid, x_radius=config.x_radius,
                                      degree_cap=config.degree_cap,
                                      grid_points=config.x_count)
            flags = () if entry.bounded else (
                "unbounded catalog entry: sup-norm rows are grid proxies only",)
            return ReportRow(name=f"lip.inclusion.{name}", inputs="alpha 0.4 <- 0.8",
                             computed=rep.a_alpha1, oracle=rep.bound, tol_rel=1e-12,
                             tol_abs=1e-12, check="bound", flags=flags)

        _guard(rows, f"lip.inclusion.{name}", "", inclusion_row)

    def derivative_consistency_row():
        e = project(catalog_function("cos:1")[1], 1, config.degree_cap,
                    gauss_hermite_rule(config.nodes))
        t, h, x = 0.5, 1e-4, 0.6
        d1 = eval_expansion(ph_apply(e, SemigroupQuery(t, "spectral", 1)), x)
        up = eval_expansion(ph_apply(e, SemigroupQuery(t + h, "spectral")), x)
        dn = eval_expansion(ph_apply(e, SemigroupQuery(t - h, "spectral")), x)
        return ReportRow(name="lip.spectral_derivative.fd_consistency",
                         inputs=f"f=cos, t={t}, x={x}",
                         computed=d1, oracle=(up - dn) / (2 * h), tol_rel=1e-5,
                         tol_abs=0.0)

    _guard(rows, "lip.spectral_derivative.fd_consistency", "", derivative_consistency_row)

    def remark_decay_row():
        e = project(catalog_function("cos:1")[1], 1, config.degree_cap,
                    gauss_hermite_rule(config.nodes))
        far = [t for t in t_grid if t >= 1.0]
        sups = {}
        for t in far:
            d1 = ph_apply(e, SemigroupQuery(t, "spectral", 1))
            sups[t] = lip.sup_norm_estimate(d1, config.x_radius, config.x_count).value
        c_emp = max(t * sups[t] for t in far)
        worst = max(sups[t] - c_emp / t for t in far)
        return ReportRow(name="lip.remark.decay_away_from_zero",
                         inputs="sup <= C/t for t >= 1, C empirical",
                         computed=worst, oracle=0.0, tol_rel=0.0, tol_abs=1e-12,
                         check="bound")

    _guard(rows, "lip.remark.decay_away_from_zero", "", remark_decay_row)
    return rows


# ----------------------------------------------------------------------------
# boundedness: mapping probes for the four fractional operators
# ----------------------------------------------------------------------------

def suite_boundedness(config: SuiteConfig) -> list:
    rows: list = []
    t_grid = config.t_grid()
    suite = [(name, catalog_function(name)[1]) for name in config.functions]

    probes = [
        ("bessel_potential", 0.5, 0.4, "spectral"),
        ("riesz_derivative", 0.3, 0.9, "spectral"),
        ("bessel_derivative", 0.3, 0.9, "spectral"),
        ("riesz_potential", 0.5, 0.5, "spectral"),
    ]
    user_probe = (config.kind, config.beta, config.alpha, config.representation)
    if user_probe not in probes:
        probes.append(user_probe)
    for kind, beta, alpha, representation in probes:
        def probe_rows(kind=kind, beta=beta, alpha=alpha, representation=representation):
            out = []
            spec = frac.FractionalSpec(kind=kind, beta=beta, representation=representation)
            rep = lip.operator_boundedness_probe(spec, suite, alpha, t_grid,
                                                 x_radius=config.x_radius,
                                                 degree_cap=config.degree_cap,
                                                 grid_points=config.x_count)
            flags = ("one-sided: L1-catalog estimator reused",) \
                if kind == "riesz_potential" else ()
            for row in rep.rows:
                out.append(ReportRow(
                    name=f"bounded.{kind}.beta{beta}.alpha{alpha}.{row.name}",
                    inputs=f"target alpha {rep.target_alpha}; ratio {row.ratio:.4g}",
                    computed=row.drift, oracle=lip.STABILITY_DRIFT,
                    tol_rel=0.0, tol_abs=0.0, check="bound",
                    flags=flags + row.flags))
            return out

        _guard(rows, f"bounded.{kind}", "", probe_rows)

    def const_zero_rows():
        out = []
        e = project(catalog_function("const:1")[1], 1, 8, gauss_hermite_rule(32))
        for kind, beta in (("riesz_derivative", 0.3), ("bessel_potential", 0.5)):
            spec = frac.FractionalSpec(kind=kind, beta=beta, representation="spectral")
            image = frac.apply_fractional(e, spec)
            est = lip.seminorm_estimate(image, 0.5, t_grid, config.x_radius, degree_cap=8,
                                        grid_points=config.x_count)
            out.append(ReportRow(name=f"bounded.const_image.{kind}",
                                 inputs=f"f=1, kind={kind}",
                                 computed=est.a_alpha, oracle=0.0, tol_rel=0.0,
                                 tol_abs=1e-10))
        return out

    _guard(rows, "bounded.const", "", const_zero_rows)
    return rows


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
    rows: list = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in names:
            rows.extend(_SUITE_BUILDERS[name](config))
    cfg = asdict(config)
    cfg["functions"] = list(config.functions)
    return make_report(suite, cfg, rows)
