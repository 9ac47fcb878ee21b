"""Seeded request streams for the library workloads, each with its check.

A request is a call into gausslip's public API plus an independent check of
its result (see ``reference``).  ``build(workload, seed)`` returns the same
list for the same seed; the mix has fixed counts per request type, so only
the parameters vary with the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gausslip as g
import reference as ref

#: deviation allowed for every semigroup request: the eigen suite's
#: ``SuiteConfig.tol``, applied to the same max-deviation / max-oracle ratio
SEMIGROUP_TOL = 1e-6
#: s-integral tolerance passed to the Poisson-Hermite routes
PH_TOL = 1e-9
#: OU requests below this t form the small-t share (known defect, see README)
SMALL_T = 1e-2
#: the s-integral tolerance ``kernel_derivative_l1`` gives its tail's weight mass
WEIGHT_MASS_TOL = 1e-8

X1 = np.linspace(-2.5, 2.5, 11)[:, None]
_U = np.linspace(-2.0, 2.0, 11)
X2 = np.stack([_U, _U[::-1]], axis=-1)


class KnownDefect(str):
    """A check failure that a documented gausslip defect explains (README)."""


@dataclass
class Request:
    kind: str
    run: Callable
    check: Callable          # result -> list of failure messages


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _stratified_loguniform(rng, lo: float, hi: float, m: int) -> list:
    """One log-uniform draw from each of m equal log-bins, in random order."""
    u = (rng.permutation(m) + rng.uniform(size=m)) / m
    return [float(v) for v in np.exp(math.log(lo) + u * math.log(hi / lo))]


def _hermite_input(nu):
    return lambda p: g.hermite_eval(nu, p)


def _deviation_check(want, tol: float, known_defect: bool = False):
    def check(got):
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            return [f"shape {got.shape} != {want.shape}"]
        dev = ref.rel_dev(got, want)
        if dev <= tol:
            return []
        message = f"deviation {dev:.3g} > {tol:g}"
        return [KnownDefect(message) if known_defect and math.isfinite(dev) else message]
    return check


# ----------------------------------------------------------------------------
# kernel-apply
# ----------------------------------------------------------------------------

def _ph_kernel(n: int, k: int, t: float) -> Request:
    want = (-math.sqrt(n)) ** k * math.exp(-math.sqrt(n) * t) * ref.h_values((n,), X1)
    q = g.SemigroupQuery(t, "kernel", k)
    return Request("ph_kernel_d1",
                   lambda: g.ph_apply(_hermite_input((n,)), q, d=1, tol=PH_TOL)(X1),
                   _deviation_check(want, SEMIGROUP_TOL))


def _ph_subordination(rng, n: int) -> Request:
    t = _loguniform(rng, 0.05, 2.0)
    want = math.exp(-math.sqrt(n) * t) * ref.h_values((n,), X1)
    q = g.SemigroupQuery(t, "subordination")
    return Request("ph_subordination_d1",
                   lambda: g.ph_apply(_hermite_input((n,)), q, d=1, tol=PH_TOL)(X1),
                   _deviation_check(want, SEMIGROUP_TOL))


def _kernel_l1(rng, k: int) -> Request:
    t = _loguniform(rng, 0.1, 2.0)
    x = float(rng.uniform(-1.0, 1.0))
    omega = float(rng.uniform(0.5, 3.0))
    upper = ref.weight_mass(k, t)
    lower = abs(ref.ph_cos_derivative(k, t, x, omega))
    erfc = math.erfc(8.0 + abs(x))
    tail = upper * erfc
    # integrate_halfline's own error bound for the weight mass, times erfc
    tail_tol = (1e-12 + WEIGHT_MASS_TOL * (1.0 + upper)) * erfc

    def check(res):
        value, tail_bound = float(res.value), float(res.tail_bound)
        errs = []
        if not (math.isfinite(value) and math.isfinite(tail_bound)):
            return ["non-finite result"]
        if value > upper * (1.0 + SEMIGROUP_TOL):
            errs.append(f"L1 {value:.10g} above the weight mass {upper:.10g}")
        if value < lower * (1.0 - SEMIGROUP_TOL):
            errs.append(f"L1 {value:.10g} below |d^k P_t cos| = {lower:.10g}")
        if abs(tail_bound - tail) > tail_tol:
            # the weight mass |d^k g| has kinks that the adaptive rule can
            # under-resolve (README, known defects)
            errs.append(KnownDefect(f"tail bound {tail_bound:.10g} != {tail:.10g}"))
        return errs

    return Request("kernel_derivative_l1", lambda: g.kernel_derivative_l1(t, x, k), check)


def _ou(rng, nu: tuple, small: bool) -> Request:
    t = _loguniform(rng, 1e-3, SMALL_T) if small else _loguniform(rng, 0.05, 2.0)
    d = len(nu)
    pts = X1 if d == 1 else X2
    want = math.exp(-t * sum(nu)) * ref.h_values(nu, pts)
    q = g.SemigroupQuery(t, "kernel")
    return Request(f"ou_kernel_d{d}",
                   lambda: g.ou_apply(_hermite_input(nu), q, d=d)(pts),
                   _deviation_check(want, SEMIGROUP_TOL, known_defect=small))


def _ph_kernel_d2() -> Request:
    # nu, x and t are fixed, so the graded y-grid around x, the 2-d payload
    # and the Hermite tables, hence the peak RSS, are the same on every seed
    nu, x, t = (1, 1), np.array([[0.5, -0.25]]), 1.0
    want = math.exp(-math.sqrt(2.0) * t) * ref.h_values(nu, x)
    q = g.SemigroupQuery(t, "kernel")
    return Request("ph_kernel_d2",
                   lambda: g.ph_apply(_hermite_input(nu), q, d=2, tol=PH_TOL)(x),
                   _deviation_check(want, SEMIGROUP_TOL))


def kernel_apply(rng) -> list:
    # Levels, derivative orders and the times of the Poisson-Hermite requests
    # are stratified, so the cost mix is the same on every seed.
    reqs = []
    for k in range(4):
        # k = 3 below t ~ 0.11 does not converge in minutes at tol 1e-9 (README)
        times = _stratified_loguniform(rng, 0.2 if k == 3 else 0.05, 2.0, 14)
        reqs += [_ph_kernel(i % 7, k, t) for i, t in enumerate(times)]
    reqs += [_ph_subordination(rng, i % 7) for i in range(12)]
    reqs += [_kernel_l1(rng, 1 + i % 2) for i in range(12)]
    reqs += [_ou(rng, (i % 7,), small=i % 2 == 1) for i in range(16)]
    # The d=2 requests use fixed indices and go first, in a fixed order: the
    # peak RSS they set then depends neither on the seed nor on the heap.
    first = [_ou(rng, nu, small=nu == (1, 1)) for nu in ((1, 0), (1, 1), (2, 2))]
    first.append(_ph_kernel_d2())
    return first + [reqs[i] for i in rng.permutation(len(reqs))]


# ----------------------------------------------------------------------------
# spectral-probes
# ----------------------------------------------------------------------------

N_MAX = 40
N_RANDOM = 8
KINDS = ("bessel_potential", "riesz_potential", "riesz_derivative", "bessel_derivative")
INTEGRAL_BETAS = (0.4, 0.8, 1.4)


class _Close:
    """Collects relative disagreements between library and reference."""

    def __init__(self, floor: float):
        self.floor = floor
        self.errs: list = []

    def __call__(self, name: str, got, want) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.errs.append(f"{name}: shape {got.shape} != {want.shape}")
            return
        if not np.all(np.isfinite(got)):
            self.errs.append(f"{name}: non-finite")
            return
        scale = np.maximum(np.abs(got), np.abs(want))
        bad = np.abs(got - want) > ref.PROBE_RTOL * scale + self.floor
        if np.any(bad):
            i = int(np.argmax(bad.ravel()))
            self.errs.append(f"{name}: {got.ravel()[i]!r} != reference {want.ravel()[i]!r}")

    def flag(self, name: str, got: bool, want: bool, margin: float) -> None:
        # a boolean is compared only where the reference decides it clearly
        if got != want and abs(margin) > ref.PROBE_RTOL:
            self.errs.append(f"{name}: {got} != reference {want}")


def _pool(rng):
    """Seeded rough-to-smooth random expansions plus the default catalog."""
    pool = []
    for i in range(N_RANDOM):
        p = float(rng.uniform(0.5, 3.0))
        c = rng.uniform(-1.0, 1.0, N_MAX + 1) * (1.0 + np.arange(N_MAX + 1)) ** (-p)
        e = g.HermiteExpansion(1, N_MAX, {(n,): float(c[n]) for n in range(N_MAX + 1)})
        pool.append((f"random{i}.p{p:.2f}", e, c))
    for name in g.catalog.DEFAULT_SUITE:
        f = g.catalog_function(name)[1]
        pool.append((name, f, ref.project(f, N_MAX)))
    return pool


def _pick(rng, pool):
    return pool[int(rng.integers(0, len(pool)))]


def _floor(dense, c) -> float:
    return ref.PROBE_NOISE * (1.0 + float(dense.sups(c)[0]))


def _seminorm(rng, pool, dense) -> Request:
    _, f, c = _pick(rng, pool)
    alpha = float(rng.uniform(0.2, 2.8))
    want = dense.seminorm(c, alpha)

    def check(est):
        close = _Close(_floor(dense, c))
        close("a_alpha", est.a_alpha, want["a_alpha"])
        close("sup_norm_f", est.sup_norm_f, want["sup_f"])
        close("rows.sup_norm", [r.sup_norm for r in est.rows], want["rows"])
        close("rows.t", [r.t for r in est.rows], want["t"])
        return close.errs

    return Request("seminorm_estimate", lambda: g.seminorm_estimate(f, alpha), check)


def _modulus(rng, pool, dense) -> Request:
    _, f, c = _pick(rng, pool)
    alpha = float(rng.uniform(0.2, 1.8))
    want = dense.modulus(c, alpha)

    def check(rep):
        close = _Close(_floor(dense, c))
        close("rows.norm", [r.norm for r in rep.rows], want["norms"])
        close("rows.ratio", [r.ratio for r in rep.rows], want["ratios"])
        close("max_ratio", rep.max_ratio, want["ratios"].max())
        close("ceiling", rep.ceiling, want["ceiling"])
        over = (want["norms"] - want["ceiling"] - 1e-8) / max(want["ceiling"], 1.0)
        close.flag("ceiling_ok", rep.ceiling_ok, bool(np.all(over <= 0)), float(np.max(over)))
        return close.errs

    return Request("modulus_probe", lambda: g.modulus_probe(f, alpha), check)


def _inclusion(rng, pool, dense) -> Request:
    _, f, c = _pick(rng, pool)
    a1, a2 = sorted(float(v) for v in rng.uniform(0.2, 2.5, 2))
    want = dense.inclusion(c, a1, a2)

    def check(rep):
        close = _Close(_floor(dense, c))
        for key in ("a_alpha1", "a_alpha2", "c_remark", "bound"):
            close(key, getattr(rep, key), want[key])
        margin = (want["a_alpha1"] - want["bound"]) / max(want["bound"], 1e-300)
        close.flag("satisfied", rep.satisfied, margin <= 1e-12, margin - 1e-12)
        return close.errs

    return Request("inclusion_probe", lambda: g.inclusion_probe(f, a1, a2), check)


def _equivalence(rng, pool, dense) -> Request:
    _, f, c = _pick(rng, pool)
    alpha = float(rng.uniform(0.2, 1.8))
    k = int(math.floor(alpha)) + 1
    want_k = dense.seminorm(c, alpha, n=k)["a_alpha"]
    want_l = dense.seminorm(c, alpha, n=k + 1)["a_alpha"]

    def check(rep):
        close = _Close(_floor(dense, c))
        close("a_k", rep.a_k, want_k)
        close("a_l", rep.a_l, want_l)
        if not rep.exact_zero and math.isfinite(rep.ratio):
            close("ratio", rep.ratio, want_k / want_l)
        return close.errs

    return Request("derivative_equivalence_probe",
                   lambda: g.derivative_equivalence_probe(f, alpha, k, k + 1), check)


def _boundedness(rng, pool, dense, kind: str) -> Request:
    rand = pool[int(rng.integers(0, N_RANDOM))]
    cat = pool[int(rng.integers(N_RANDOM, len(pool)))]
    if kind.endswith("derivative"):
        alpha = float(rng.uniform(0.5, 1.5))
        beta = float(rng.uniform(0.1, alpha - 0.1))
        target_alpha = alpha - beta
    else:
        alpha = float(rng.uniform(0.2, 1.2))
        beta = float(rng.uniform(0.2, 0.8))
        target_alpha = alpha + beta
    spec = g.FractionalSpec(kind=kind, beta=beta)
    grid = np.sort(np.asarray(ref.DEFAULT_T_GRID))
    refined = np.geomspace(grid[0], grid[-1], 2 * grid.size)
    mult = dense.operator_multiplier(kind, beta)
    wants = []
    for _, _, c in (rand, cat):
        src = dense.seminorm(c, alpha)
        tgt = dense.seminorm(c * mult, target_alpha)["a_alpha"]
        tgt_ref = dense.seminorm(c * mult, target_alpha, refined)["a_alpha"]
        base = max(tgt, tgt_ref)
        wants.append({"source": src["sup_f"] + src["a_alpha"], "target": tgt,
                      "refined": tgt_ref, "base": base,
                      "drift": abs(tgt_ref - tgt) / base if base > 0 else 0.0,
                      "floor": _floor(dense, c)})
    suite = [(rand[0], rand[1]), (cat[0], cat[1])]

    def check(rep):
        errs = [] if len(rep.rows) == 2 else [f"{len(rep.rows)} rows, expected 2"]
        for row, want in zip(rep.rows, wants):
            close = _Close(want["floor"])
            close("source_norm", row.source_norm, want["source"])
            close("target_seminorm", row.target_seminorm, want["target"])
            close("refined_seminorm", row.refined_seminorm, want["refined"])
            close("ratio", row.ratio, want["target"] / want["source"])
            if want["base"] > want["floor"]:
                close("drift", row.drift, want["drift"])
            elif not 0.0 <= row.drift <= 1.0:   # both seminorms are rounding noise
                close.errs.append(f"drift {row.drift!r} outside [0, 1]")
            errs += [f"{row.name}.{e}" for e in close.errs]
        return errs

    return Request("operator_boundedness_probe",
                   lambda: g.operator_boundedness_probe(spec, suite, alpha), check)


def _integral(rng, pool, kind: str, beta: float) -> Request:
    _, e, c = pool[int(rng.integers(0, N_RANDOM))]
    if kind == "riesz_potential":
        e = g.remove_mean(e)
        c = c.copy()
        c[0] = 0.0
    lam = np.array([ref.integral_eigenvalue(kind, beta, n) for n in range(N_MAX + 1)])
    want = lam * c
    spec = g.FractionalSpec(kind=kind, beta=beta, representation="integral")

    def check(out):
        got = np.array([out.coefficient((n,)) for n in range(N_MAX + 1)])
        if not np.all(np.isfinite(got)):
            return ["non-finite coefficient"]
        bad = np.abs(got - want) > ref.INTEGRAL_RTOL * np.abs(want)
        if np.any(bad):
            n = int(np.argmax(bad))
            return [f"level {n}: {got[n]!r} != {want[n]!r} ({kind}, beta={beta})"]
        return []

    return Request("apply_fractional_integral", lambda: g.apply_fractional(e, spec), check)


def spectral_probes(rng) -> list:
    pool = _pool(rng)
    dense = ref.Dense(N_MAX)
    reqs = [_seminorm(rng, pool, dense) for _ in range(20)]
    reqs += [_modulus(rng, pool, dense) for _ in range(16)]
    reqs += [_inclusion(rng, pool, dense) for _ in range(16)]
    reqs += [_equivalence(rng, pool, dense) for _ in range(18)]
    reqs += [_boundedness(rng, pool, dense, KINDS[i % 4]) for i in range(16)]
    # every (kind, beta) pair once, cold, then two repeats that hit the cache
    combos = [(kind, beta) for kind in KINDS for beta in INTEGRAL_BETAS]
    combos += [combos[int(i)] for i in rng.integers(0, len(combos), 2)]
    integral = [_integral(rng, pool, kind, beta) for kind, beta in combos]
    mixed = [(reqs + integral)[i] for i in rng.permutation(len(reqs) + len(integral))]
    # the integral requests keep their order, so the cold ones come first
    cold_first = iter(integral)
    return [next(cold_first) if r.kind == "apply_fractional_integral" else r for r in mixed]


STREAMS = {"kernel-apply": kernel_apply, "spectral-probes": spectral_probes}


def build(workload: str, seed: int) -> list:
    """The seeded request list of a library workload, in execution order."""
    rng = np.random.default_rng([seed, sorted(STREAMS).index(workload)])
    return STREAMS[workload](rng)
