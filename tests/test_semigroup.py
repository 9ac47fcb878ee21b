import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslip import quadrature, semigroup
from gausslip.errors import ConvergenceError
from gausslip.hermite import HermiteExpansion, eval_expansion, hermite_eval, project
from gausslip.quadrature import gauss_legendre_panels, integrate_halfline
from gausslip.semigroup import (
    SemigroupQuery,
    derivative_weight_mass,
    kernel_derivative_l1,
    mehler_kernel,
    ou_apply,
    ph_apply,
    ph_kernel,
    ph_kernel_time_derivative,
    ph_symbol,
    stable_density,
)

SQRT_PI = math.sqrt(math.pi)


class TestQueryValidation:
    def test_zero_time_needs_spectral_identity(self):
        SemigroupQuery(0.0, "spectral", 0)
        with pytest.raises(ValueError):
            SemigroupQuery(0.0, "kernel")
        with pytest.raises(ValueError):
            SemigroupQuery(0.0, "spectral", 1)

    def test_negative_time_and_unknown_method(self):
        with pytest.raises(ValueError):
            SemigroupQuery(-0.5, "spectral")
        with pytest.raises(ValueError):
            SemigroupQuery(1.0, "fourier")

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    @pytest.mark.parametrize("method", ["spectral", "kernel"])
    def test_non_finite_time(self, t, method):
        # spectral at t = inf made the mean coefficient exp(-0 inf) = nan
        with pytest.raises(ValueError, match="finite"):
            SemigroupQuery(t, method)


class TestNonIntegerDerivativeOrder:
    """A fractional order k is rejected by name, never run as k = 3 (the last
    branch of the weight factor) or turned into a nan or a KeyError."""

    @pytest.mark.parametrize("call", [
        lambda k: SemigroupQuery(0.5, "kernel", k),
        lambda k: SemigroupQuery(0.5, "spectral", k),
        lambda k: ph_kernel_time_derivative(0.5, 0.0, 0.1, k),
        lambda k: derivative_weight_mass(0.5, k),
        lambda k: kernel_derivative_l1(0.5, 0.0, k),
    ], ids=["kernel-query", "spectral-query", "kernel-derivative", "weight-mass", "l1"])
    @pytest.mark.parametrize("k", [1.5, 2.5, math.nan])
    def test_rejected(self, call, k):
        with pytest.raises(ValueError, match="must be an integer"):
            call(k)

    def test_integral_floats_still_run(self):
        e = HermiteExpansion(1, 2, {(2,): 1.0})
        for method in ("spectral", "subordination"):
            out = ph_apply(e, SemigroupQuery(0.5, method, 2.0), tol=1e-9)
            assert out.coefficient((2,)) == pytest.approx(
                2.0 * math.exp(-0.5 * math.sqrt(2.0)), rel=1e-10)
        assert derivative_weight_mass(0.5, 2.0) == derivative_weight_mass(0.5, 2)


class TestMehlerKernel:
    def test_value_at_half_decay(self):
        t = math.log(2.0)  # e^{-t} = 1/2
        want = 1.0 / (SQRT_PI * math.sqrt(0.75))
        assert mehler_kernel(t, 0.0, 0.0) == pytest.approx(want, rel=1e-13)

    def test_long_time_limit_is_gaussian_density(self):
        assert mehler_kernel(40.0, 1.3, 0.0) == pytest.approx(math.pi ** -0.5, rel=1e-12)

    def test_mass_one(self):
        ys, w = gauss_legendre_panels(np.linspace(-11.5, 11.5, 59))
        for t, x in [(0.1, 0.0), (0.1, 1.5), (1.0, 0.0), (1.0, 1.5)]:
            vals = mehler_kernel(t, np.array([[x]]), ys[:, None])
            assert float(w @ vals) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            mehler_kernel(0.0, 0.0, 0.0)

    def test_underflow_is_not_floored(self):
        # the kernel routes raise their exponents to _EXP_FLOOR; the kernel
        # itself still underflows to 0
        assert mehler_kernel(0.5, 0.0, 40.0) == 0.0


class TestOUApply:
    def test_spectral_eigenvalue(self):
        e = HermiteExpansion(1, 3, {(3,): 1.0})
        out = ou_apply(e, SemigroupQuery(0.4, "spectral"))
        assert out.coefficient((3,)) == pytest.approx(math.exp(-1.2), rel=1e-14)

    def test_kernel_preserves_constants(self):
        op = ou_apply(lambda p: np.ones(p.shape[0]), SemigroupQuery(0.7, "kernel"), d=1)
        assert op(np.array([[0.0], [1.2]])) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_kernel_matches_spectral_on_h2(self):
        op = ou_apply(lambda p: hermite_eval((2,), p), SemigroupQuery(0.5, "kernel"), d=1)
        xs = np.linspace(-2.0, 2.0, 9)
        got = op(xs[:, None])
        want = math.exp(-1.0) * hermite_eval((2,), xs)
        assert np.max(np.abs(got - want)) <= 1e-7

    @pytest.mark.parametrize("nu, t", [((3,), 1e-3), ((3,), 1e-4), ((1, 1), 1e-3)])
    def test_kernel_small_time(self, nu, t):
        d = len(nu)
        x = np.linspace(-2.5, 2.5, 11)[:, None] * np.linspace(1.0, 0.6, d)
        op = ou_apply(lambda p: hermite_eval(nu, p), SemigroupQuery(t, "kernel"), d=d)
        want = math.exp(-sum(nu) * t) * hermite_eval(nu, x)
        assert np.max(np.abs(op(x) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_kernel_rejects_callable_of_the_wrong_dimension(self):
        # a d=1 callable sees (n, 2) points and answers (n, 2)
        op = ou_apply(lambda p: hermite_eval((1,), p), SemigroupQuery(0.5, "kernel"), d=2)
        with pytest.raises(ValueError, match=r"returned shape \(\d+, 2\)"):
            op(np.array([[0.1, 0.2]]))

    def test_method_input_mismatch(self):
        with pytest.raises(ValueError):
            ou_apply(lambda p: p[:, 0], SemigroupQuery(0.5, "spectral"))
        with pytest.raises(ValueError):
            ou_apply(HermiteExpansion(1, 1, {(1,): 1.0}),
                     SemigroupQuery(0.5, "subordination"))
        with pytest.raises(ValueError):
            ou_apply(HermiteExpansion(1, 1, {(1,): 1.0}),
                     SemigroupQuery(0.5, "spectral", 1))

    def test_identity_at_time_zero(self):
        e = HermiteExpansion(1, 2, {(2,): 0.7})
        out = ou_apply(e, SemigroupQuery(0.0, "spectral"))
        assert out.coefficients == e.coefficients


class TestStableDensity:
    def test_mass_one(self):
        got = integrate_halfline(lambda s: stable_density(1.0, s), 1e-9)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_argmax_by_ternary_search(self):
        # stationarity of log g: t^2/(4 s^2) = 3/(2 s), so s* = t^2/6
        lo, hi = 0.05, 0.6
        for _ in range(80):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if stable_density(1.0, m1) < stable_density(1.0, m2):
                lo = m1
            else:
                hi = m2
        assert 0.5 * (lo + hi) == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_scaling_identity(self):
        # g(ct, c^2 s) = g(t, s) / c^2 with c = 2
        s = np.array([0.11, 0.5, 2.0])
        got = 4.0 * stable_density(2.0, 4.0 * s)
        want = stable_density(1.0, s)
        assert got == pytest.approx(want, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            stable_density(1.0, 0.0)
        with pytest.raises(ValueError):
            stable_density(0.0, 1.0)

    @pytest.mark.parametrize("s", [math.nan, -math.inf, [0.5, math.nan]])
    def test_rejects_every_s_not_above_zero(self, s):
        with pytest.raises(ValueError, match="s > 0"):
            stable_density(1.0, s)

    def test_vanishes_at_infinity(self):
        assert stable_density(1.0, math.inf) == 0.0


def _mpmath_density(mpmath, t, s):
    """g(t, s) = t e^{-t^2/4s} s^{-3/2} / (2 sqrt(pi)) at the working precision."""
    return t / (2 * mpmath.sqrt(mpmath.pi)) * mpmath.exp(-t * t / (4 * s)) * s ** -1.5


class TestMpmathOracles:
    """g(t, s) and p(t, x, y) = ∫ g(t, s) M_s(x, y) ds against 30-digit mpmath,
    M_s the Mehler kernel against Lebesgue dy."""

    @pytest.mark.parametrize("t, s", [(0.01, 1e-5), (0.3, 0.02), (2.0, 5.0)])
    def test_stable_density(self, t, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = _mpmath_density(mpmath, mpmath.mpf(t), mpmath.mpf(s))
            assert stable_density(t, s) == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("t, x, y", [(0.01, 0.2, 0.21), (0.05, 0.0, 0.1), (0.3, -1.0, 0.5),
                                         (1.0, 0.5, -2.0), (2.0, 2.5, -2.5)])
    def test_ph_kernel(self, t, x, y):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            t_, x_, y_ = map(mpmath.mpf, (t, x, y))

            def integrand(s):
                if s == 0:  # g(t, s) vanishes to every order at s = 0
                    return mpmath.mpf(0)
                r, v = mpmath.exp(-s), -mpmath.expm1(-2 * s)
                return (_mpmath_density(mpmath, t_, s) * mpmath.exp(-(y_ - r * x_) ** 2 / v)
                        / mpmath.sqrt(mpmath.pi * v))

            # split where g rises, peaks (s = t^2/6) and decays, and where M_s flattens
            breaks = sorted({t_ * t_ / 40, t_ * t_ / 4, 10 * t_ * t_ / 4, mpmath.mpf(1),
                             mpmath.mpf(10)})
            want = mpmath.quad(integrand, [0, *breaks, mpmath.inf])
            assert ph_kernel(t, x, y, tol=1e-12) == pytest.approx(float(want), rel=1e-12)


def _panel_integral_1d(f, lo, hi, width):
    ys, w = gauss_legendre_panels(np.linspace(lo, hi, round((hi - lo) / width) + 1))
    return float(w @ f(ys)), ys, w


class TestPHKernel:
    def test_mass_one(self):
        for t in (0.25, 1.0):
            for x in (0.0, 1.0):
                got, _, _ = _panel_integral_1d(
                    lambda ys: ph_kernel(t, np.array([[x]]), ys[:, None]),
                    -10.0 - abs(x), 10.0 + abs(x), 0.25)
                assert got == pytest.approx(1.0, abs=1e-7)

    def test_positivity_on_random_sample(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            t = float(rng.uniform(0.1, 2.0))
            x = float(rng.uniform(-2.0, 2.0))
            y = float(rng.uniform(-3.0, 3.0))
            assert ph_kernel(t, x, y) > 0.0

    def test_eigenfunction_consistency(self):
        t, x = 0.5, 1.0
        got, ys, w = _panel_integral_1d(
            lambda ys: ph_kernel(t, np.array([[x]]), ys[:, None]) * hermite_eval((2,), ys),
            -11.0, 11.0, 0.2)
        want = math.exp(-math.sqrt(2.0) * t) * hermite_eval((2,), x)
        assert got == pytest.approx(want, abs=1e-6)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            ph_kernel(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("x, y", [(math.inf, 0.0), (-math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_non_finite_points(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            ph_kernel(0.5, x, y)
        with pytest.raises(ValueError, match="finite"):
            ph_kernel_time_derivative(0.5, x, y, 1)

    def test_distinct_points_share_one_s_integral(self, monkeypatch):
        calls = []
        real = semigroup._subordinate

        def subordinate(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(semigroup, "_subordinate", subordinate)
        t, tol = 0.4, 1e-9
        x = np.array([-1.5, -0.2, 0.0, 0.7, 2.1])[:, None]
        y = np.array([0.3, 1.1, -0.8, 0.7, -2.0])[:, None]
        for k, kernel in ((0, lambda *a: ph_kernel(*a, tol=tol)),
                          (1, lambda *a: ph_kernel_time_derivative(*a, 1, tol=tol))):
            calls.clear()
            batch = kernel(t, x, y)
            assert len(calls) == 1 and calls[0][1] == k
            alone = [kernel(t, xi, yi) for xi, yi in zip(x[:, 0], y[:, 0])]
            assert batch == pytest.approx(alone, rel=0, abs=tol)

    @staticmethod
    def _series_oracle_2d(t, x, y, nmax=1400):
        # independent route: p(t,x,y) = gamma(y) sum_n e^{-sqrt(n) t} *
        # sum_{i+j=n} h_i(x1) h_i(y1) h_j(x2) h_j(y2)
        from gausslip.hermite import hermite_values_1d
        a = (hermite_values_1d(nmax, np.array(x[0])).ravel()
             * hermite_values_1d(nmax, np.array(y[0])).ravel())
        b = (hermite_values_1d(nmax, np.array(x[1])).ravel()
             * hermite_values_1d(nmax, np.array(y[1])).ravel())
        total = 0.0
        for n in range(nmax + 1):
            i = np.arange(0, n + 1)
            total += math.exp(-math.sqrt(n) * t) * float(np.sum(a[i] * b[n - i]))
        return total * math.exp(-(y[0] ** 2 + y[1] ** 2)) / math.pi

    def test_two_dim_value_against_series_oracle(self):
        for t, x, y, rel in [(1.0, (0.5, -0.3), (0.2, 0.8), 1e-9),
                             (0.6, (0.0, 1.0), (-0.4, 0.3), 1e-6)]:
            direct = ph_kernel(t, np.array(x), np.array(y), d=2, tol=1e-9)
            series = self._series_oracle_2d(t, x, y)
            assert direct == pytest.approx(series, rel=rel)


class TestPHApply:
    def test_spectral_eigenvalue(self):
        e = HermiteExpansion(1, 4, {(4,): 1.0})
        out = ph_apply(e, SemigroupQuery(0.3, "spectral"))
        assert out.coefficient((4,)) == pytest.approx(math.exp(-0.6), rel=1e-14)

    def test_spectral_second_derivative(self):
        e = HermiteExpansion(1, 4, {(4,): 1.0})
        out = ph_apply(e, SemigroupQuery(0.3, "spectral", 2))
        assert out.coefficient((4,)) == pytest.approx(4.0 * math.exp(-0.6), rel=1e-14)

    def test_subordination_matches_spectral_on_cos(self):
        f = lambda p: np.cos(p[:, 0])
        sub = ph_apply(f, SemigroupQuery(0.5, "subordination"), d=1, tol=1e-9)
        e = project(f, 1, 40)
        want = eval_expansion(ph_apply(e, SemigroupQuery(0.5, "spectral")), 0.7)
        assert sub(np.array([[0.7]]))[0] == pytest.approx(want, abs=1e-6)

    def test_subordination_on_expansion_reproduces_eigenvalues(self):
        for n in (0, 1, 3):
            e = HermiteExpansion(1, 3, {(n,): 1.0})
            out = ph_apply(e, SemigroupQuery(0.8, "subordination"), tol=1e-9)
            assert out.coefficient((n,)) == pytest.approx(
                math.exp(-math.sqrt(n) * 0.8), rel=1e-8)

    @pytest.mark.parametrize("t", [1e-4, 1.0])
    def test_subordination_multiplier_at_a_high_level(self, t):
        # e^{-400 s} g(t, s) is negligible near s = 1 and peaks at
        # s = t/40 (log s ~ -12.9 and -3.7)
        got = semigroup._subordination_multiplier(t, (400,), 0, 1e-9)[0]
        assert abs(got - math.exp(-20.0 * t)) <= 1e-9

    def test_subordination_on_expansion_makes_one_s_integral(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return subordinate(*args, **kwargs)

        subordinate = semigroup._subordinate
        monkeypatch.setattr(semigroup, "_subordinate", counted)
        e = HermiteExpansion(1, 40, {(n,): 1.0 for n in range(41)})
        out = ph_apply(e, SemigroupQuery(0.3, "subordination"), tol=1e-9)
        assert len(calls) == 1
        want = np.exp(-0.3 * np.sqrt(np.arange(41.0)))
        assert np.max(np.abs(out.vector - want)) <= 1e-9

    @pytest.mark.parametrize("t", [1e-3, 0.3, 5.0])
    def test_subordination_multiplier_vector_matches_single_levels(self, t):
        levels = (0, 1, 2, 7, 40, 400, 3000)
        vector = semigroup._subordination_multiplier(t, levels, 0, 1e-9)
        single = [semigroup._subordination_multiplier(t, (n,), 0, 1e-9)[0] for n in levels]
        assert not vector.flags.writeable
        assert vector[0] == 1.0
        assert np.max(np.abs(vector - single)) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_subordination_on_high_chaos_levels(self, tol):
        # e^{-ns} g(t, s) peaks at s ~ t / 2 sqrt(n): for large n a narrow
        # peak far from s = 1, which the exp-sinh map narrowed further
        # (t = 0.1, n = 10000 gave 0 for e^{-10})
        wrong = []
        for t in (1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.7, 1.0, 3.0, 10.0, 30.0):
            for n in (0, 1, 2, 5, 10, 30, 100, 400, 1024, 3000, 10000, 20000, 40000):
                e = HermiteExpansion(1, n, {(n,): 1.0})
                got = ph_apply(e, SemigroupQuery(t, "subordination"), tol=tol).coefficient((n,))
                want = ph_apply(e, SemigroupQuery(t, "spectral")).coefficient((n,))
                if not abs(got - want) <= tol:
                    wrong.append((t, n, got, want))
        assert wrong == []

    @pytest.mark.parametrize("t", [0.05, 0.2, 1.0, 2.0])
    def test_subordination_derivatives_match_the_symbol(self, t):
        # d^k/dt^k P_t h_n = (-sqrt(n))^k e^{-sqrt(n) t} h_n on both branches
        xs = np.linspace(-2.5, 2.5, 7)[:, None]
        for k in range(4):
            for n in range(7):
                want = ph_symbol(t, n, k)
                q = SemigroupQuery(t, "subordination", k)
                e = HermiteExpansion(1, n, {(n,): 1.0})
                got = ph_apply(e, q, tol=1e-9).coefficient((n,))
                assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
                op = ph_apply(lambda p, n=n: hermite_eval((n,), p), q, tol=1e-9)
                h = hermite_eval((n,), xs)
                assert np.max(np.abs(op(xs) - want * h)) <= 1e-10 * abs(want) * np.max(np.abs(h))

    def test_subordination_derivative_of_cos_far_out(self):
        # a 30-digit mpmath quadrature and scipy give 5.55659346 at (t, x) = (0.05, -46.58)
        op = ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(0.05, "subordination", 1),
                      tol=1e-9)
        assert op(np.array([[-46.58]]))[0] == pytest.approx(5.55659346, abs=5e-9)

    def test_subordination_derivative_above_three_unsupported(self):
        e = HermiteExpansion(1, 1, {(1,): 1.0})
        for f in (e, lambda p: np.cos(p[:, 0])):
            with pytest.raises(NotImplementedError):
                ph_apply(f, SemigroupQuery(0.5, "subordination", 4))

    def test_kernel_matches_spectral_on_h3(self):
        op = ph_apply(lambda p: hermite_eval((3,), p), SemigroupQuery(0.5, "kernel"),
                      d=1, tol=1e-9)
        xs = np.linspace(-2.0, 2.0, 5)
        got = op(xs[:, None])
        want = math.exp(-math.sqrt(3.0) * 0.5) * hermite_eval((3,), xs)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_kernel_two_dims_spot_check(self):
        nu = (1, 1)
        op = ph_apply(lambda p: hermite_eval(nu, p), SemigroupQuery(1.0, "kernel"),
                      d=2, tol=1e-8)
        x = np.array([[0.5, -0.3]])
        got = op(x)[0]
        want = math.exp(-math.sqrt(2.0)) * hermite_eval(nu, x[0])
        assert got == pytest.approx(want, rel=1e-6)

    def test_kernel_first_derivative_matches_spectral(self):
        e = project(lambda p: np.cos(p[:, 0]), 1, 40)
        want = eval_expansion(ph_apply(e, SemigroupQuery(0.6, "spectral", 1)), 0.4)
        op = ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(0.6, "kernel", 1),
                      d=1, tol=1e-9)
        assert op(np.array([[0.4]]))[0] == pytest.approx(want, abs=1e-6)

    def test_kernel_small_time(self):
        xs = np.linspace(-2.5, 2.5, 11)
        for t in (1e-3, 1e-4):
            op = ph_apply(lambda p: hermite_eval((3,), p), SemigroupQuery(t, "kernel"),
                          d=1, tol=1e-9)
            want = math.exp(-math.sqrt(3.0) * t) * hermite_eval((3,), xs)
            assert np.max(np.abs(op(xs[:, None]) - want)) <= 1e-6

    def test_kernel_third_derivative_at_small_time(self):
        n, t = 3, 0.05
        op = ph_apply(lambda p: hermite_eval((n,), p), SemigroupQuery(t, "kernel", 3),
                      d=1, tol=1e-9)
        xs = np.linspace(-2.5, 2.5, 11)
        want = (-math.sqrt(n)) ** 3 * math.exp(-math.sqrt(n) * t) * hermite_eval((n,), xs)
        assert np.max(np.abs(op(xs[:, None]) - want)) <= 1e-6

    @pytest.mark.parametrize("t", [1e-4, 1e-3])
    @pytest.mark.parametrize("k", [2, 3])
    def test_kernel_derivative_at_small_time_is_right_or_raises(self, t, k):
        # the terms of d^k g/dt^k reach ~t^{-k} and cancel; where the float64
        # rounding of their mass is above tol, the call must raise, not
        # return a value that is off
        op = ph_apply(lambda p: hermite_eval((3,), p), SemigroupQuery(t, "kernel", k),
                      d=1, tol=1e-9)
        xs = np.linspace(-2.0, 2.0, 11)
        want = (-math.sqrt(3.0)) ** k * math.exp(-math.sqrt(3.0) * t) * hermite_eval((3,), xs)
        try:
            got = op(xs[:, None])
        except ConvergenceError as err:
            assert err.error_bound == math.inf
        else:
            assert np.max(np.abs(got - want)) <= 1e-6

    def test_kernel_third_derivative_of_a_constant_at_small_time(self):
        # d^3/dt^3 P_t 1 = 0, and T_s 1 - T_inf 1 = 0 at every s.  The route
        # contracts f(y) - f(x), which is 0 here, so no y-quadrature error is
        # left; contracting f itself gave 4.75e-4 at t = 1e-3, 4750 tol
        op = ph_apply(lambda p: hermite_eval((0,), p), SemigroupQuery(1e-3, "kernel", 3),
                      d=1, tol=1e-7)
        assert np.all(op(np.linspace(-2.5, 2.5, 11)[:, None]) == 0.0)

    @pytest.mark.parametrize("t", [1e-3, 0.05, 1.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_kernel_is_exact_on_constants(self, d, t):
        # P_t c = c and d^k/dt^k P_t c = 0: f(y) - f(x) is 0 at every node
        c = -2.75
        x = np.stack([np.linspace(-2.5, 2.5, 5)] * d, axis=-1)
        x[:, -1] *= -0.5
        for k in range(4):
            op = ph_apply(lambda p: np.full(p.shape[0], c), SemigroupQuery(t, "kernel", k),
                          d=d, tol=1e-9)
            assert np.all(op(x) == (c if k == 0 else 0.0)), k

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("nu", [(1, 1), (2, 1)])  # (2, 1) tells the axes apart
    def test_kernel_two_dims_batch(self, nu, k):
        n, t = sum(nu), 0.7
        op = ph_apply(lambda p: hermite_eval(nu, p), SemigroupQuery(t, "kernel", k),
                      d=2, tol=1e-9)
        x = np.array([[0.5, -0.25], [-1.0, 0.3], [0.0, 1.2]])
        want = (-math.sqrt(n)) ** k * math.exp(-math.sqrt(n) * t) * hermite_eval(nu, x)
        assert np.max(np.abs(op(x) - want)) <= 1e-6

    @pytest.mark.parametrize("apply, q", [
        (ph_apply, SemigroupQuery(0.4, "kernel", 1)),
        (ou_apply, SemigroupQuery(0.4, "kernel")),
        (ph_apply, SemigroupQuery(0.4, "subordination")),
    ])
    def test_kernel_batch_matches_single_points(self, apply, q):
        op = apply(lambda p: np.cos(p[:, 0]) * np.exp(-0.1 * p[:, 0] ** 2), q, d=1)
        xs = np.linspace(-2.0, 2.5, 66)  # more than one block of x-points
        batch = op(xs[:, None])
        picks = [0, 31, 63, 64, 65]
        single = np.array([op(xs[i]) for i in picks])
        assert np.max(np.abs(batch[picks] - single)) <= 1e-9
        assert op(np.empty((0, 1))).shape == (0,)

    def test_kernel_makes_one_halfline_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("tol"))
            return integrate_halfline(*args, **kwargs)

        monkeypatch.setattr(semigroup, "integrate_halfline", counted)
        op = ph_apply(lambda p: hermite_eval((2,), p), SemigroupQuery(0.5, "kernel"),
                      d=1, tol=1e-9)
        op(np.linspace(-2.5, 2.5, 11)[:, None])
        assert calls == [1e-9]

    @pytest.mark.parametrize("method", ["subordination", "kernel"])
    def test_wrong_shape_callable_names_the_shape(self, method):
        # a callable answering (n, 1) instead of (n,)
        op = ph_apply(lambda p: p, SemigroupQuery(0.5, method), d=1, tol=1e-8)
        with pytest.raises(ValueError, match="shape"):
            op(np.array([[0.1], [0.4]]))

    @pytest.mark.parametrize("method", ["kernel", "subordination"])
    def test_unit_mass_to_rounding(self, method):
        # T_inf 1 = 1 is added back in closed form and T_s 1 - T_inf 1 is
        # rounding, so only the y-rule's rounding is left
        xs = np.linspace(-2.5, 2.5, 11)[:, None]
        for t in (0.05, 0.25, 1.0, 2.0):
            op = ph_apply(lambda p: np.ones(p.shape[0]), SemigroupQuery(t, method), d=1)
            assert np.max(np.abs(op(xs) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("method", ["kernel", "subordination"])
    def test_s_nodes_per_apply(self, method, monkeypatch):
        # against T_s - T_inf the integrand is 0 past s ~ 40, so the rule
        # truncates near u = log s = 3.7 on that side; in log s the mass near
        # s ~ t^2 needs no finer step at small t.  One call per step: the
        # first level reaches both ends, so the walk adds none, and each
        # halving level is one call
        nodes = []
        weight = semigroup._stable_weight_factor

        def counted(t, s, k):
            nodes.append(np.size(s))
            return weight(t, s, k)

        monkeypatch.setattr(semigroup, "_stable_weight_factor", counted)
        for t, bound, calls in ((0.05, 80, 3), (0.45, 110, 4)):
            nodes.clear()
            op = ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(t, method), d=1, tol=1e-8)
            op(np.linspace(-2.5, 2.5, 11)[:, None])
            assert sum(nodes) <= bound
            assert len(nodes) <= calls

    @pytest.mark.parametrize("inner_method, tol, xs", [
        ("subordination", 1e-8, [-1.0, 0.0, 0.8]),
        ("kernel", 1e-7, [0.8]),
    ])
    def test_semigroup_law_nested(self, inner_method, tol, xs):
        # the eigen suite's ph.semigroup_law rows: P_0.3 P_0.45 cos = P_0.75 cos
        cos = lambda p: np.cos(p[:, 0])
        inner = ph_apply(cos, SemigroupQuery(0.45, inner_method), d=1, tol=tol)
        nested = ph_apply(inner, SemigroupQuery(0.3, "kernel"), d=1, tol=tol)
        direct = ph_apply(cos, SemigroupQuery(0.75, "kernel"), d=1, tol=1e-8)
        x = np.array(xs)[:, None]
        assert np.max(np.abs(nested(x) - direct(x))) <= 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_kernel_far_points(self, k):
        # each point's y-span reaches 8 past 0 and hypot(x_i, 8) on the side
        # of x_i, where e^{-s} x_i +- 8 sqrt(1 - e^{-2s}) reach over s; 4
        # short of 0 is ~1e-9 off here
        t, x = 1.0, np.array([[-9.0], [9.0]])
        op = ph_apply(lambda p: hermite_eval((2,), p), SemigroupQuery(t, "kernel", k),
                      d=1, tol=1e-9)
        want = (-math.sqrt(2.0)) ** k * math.exp(-math.sqrt(2.0) * t) * hermite_eval((2,), x)
        assert np.max(np.abs(op(x) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_kernel_rejects_non_finite_points(self, x):
        op = ph_apply(lambda p: p[:, 0], SemigroupQuery(0.5, "kernel"), d=1)
        with pytest.raises(ValueError, match="finite"):
            op(np.array([[0.5], [x]]))
        with pytest.raises(ValueError, match="finite"):
            kernel_derivative_l1(0.5, x, 1)

    def test_kernel_evaluates_f_once_on_the_used_nodes(self):
        # one call, at the nonzero-weight nodes of every point's tensor grid,
        # point by point, each grid in row-major order, and then at the points
        t, x = 0.3, np.array([[0.5, -0.25], [-9.0, 0.0], [2.0, 3.0]])
        calls = []

        def spy(p):
            calls.append(p.copy())
            return np.cos(p[:, 0]) * p[:, 1]

        ph_apply(spy, SemigroupQuery(t, "kernel"), d=2)(x)
        want = []
        for c in x:
            axes = [_one_point_panels(t, ca) for ca in c]
            grid = np.meshgrid(*(y[w > 0] for y, w in axes), indexing="ij")
            want.append(np.stack([g.ravel() for g in grid], axis=-1))
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.concatenate(want + [x]))

    def test_kernel_derivative_order_cap(self):
        with pytest.raises(NotImplementedError):
            ph_apply(lambda p: p[:, 0], SemigroupQuery(0.5, "kernel", 4), d=1)

    def test_semigroup_law_spectral(self):
        e = project(lambda p: np.cos(p[:, 0]), 1, 30)
        t1, t2 = 0.35, 0.9
        two = ph_apply(ph_apply(e, SemigroupQuery(t1, "spectral")),
                       SemigroupQuery(t2, "spectral"))
        one = ph_apply(e, SemigroupQuery(t1 + t2, "spectral"))
        for nu in one.coefficients:
            assert two.coefficient(nu) == pytest.approx(one.coefficient(nu), abs=1e-15)

    def test_limits_in_time(self):
        e = project(lambda p: np.cos(p[:, 0]), 1, 40)
        xs = np.linspace(-2, 2, 11)
        f_vals = np.cos(xs)
        # monotone approach to the identity
        norms = []
        for t in (0.4, 0.2, 0.1, 0.05):
            vals = eval_expansion(ph_apply(e, SemigroupQuery(t, "spectral")), xs[:, None])
            norms.append(float(np.max(np.abs(vals - f_vals))))
        assert norms == sorted(norms, reverse=True)
        # long-time limit is the gamma-mean of f
        far = eval_expansion(ph_apply(e, SemigroupQuery(20.0, "spectral")), xs[:, None])
        assert np.max(np.abs(far - math.exp(-0.25))) <= 1e-4


class TestMehlerContract:
    @pytest.mark.parametrize("pts", [[[-9.0], [9.0], [0.3]], [[-9.0, 9.0], [0.3, -1.2]]])
    def test_matches_a_dense_sum(self, pts):
        # the separable, floored contraction against the sum over every node of
        # each point's tensor grid of kernel x weights x (F - f(x)), in long
        # double with r = e^{-s} in long double: the contraction forms its
        # centres from expm1(-s), exact to rounding
        t, pts = 0.05, np.array(pts)
        d = pts.shape[1]
        func = lambda p: np.cos(p[:, 0]) * (1.5 + np.sin(p[:, -1]))
        axes, F, fx = semigroup._ph_graded_grids(t, pts, func)
        assert np.array_equal(fx, func(pts))
        offsets, WF, _ = semigroup._contraction_operands(t, pts, func)
        s = np.array([1e-7, 1e-3, 0.3, 5.0, 40.0, np.inf])
        got = semigroup._contract(s, pts, offsets, WF)
        ld = np.longdouble
        for j, sj in enumerate(s):
            r = np.exp(-ld(sj))
            one_minus_r2 = -np.expm1(ld(-2.0) * ld(sj))
            for i, x in enumerate(pts):
                terms = F[i].astype(ld) - ld(fx[i])
                for a, (y, w) in enumerate(axes):
                    z = y[i].astype(ld) - r * ld(x[a])
                    factor = np.exp(-z * z / one_minus_r2) / np.sqrt(ld(math.pi) * one_minus_r2)
                    terms = terms * semigroup._along((factor * w[i])[None], a, d)[0]
                scale = float(np.abs(terms).sum())
                assert scale > 0.0
                assert abs(got[j, i] - float(terms.sum())) <= 1e-13 * scale, (sj, x)

    @pytest.mark.parametrize("pts", [[[-9.0], [9.0], [0.3]], [[-9.0, 9.0], [0.3, -1.2]]])
    def test_far_nodes_equal_the_limit(self, pts):
        # the kernel route's s_far: from 54 log 2 ~ 37.43 on, r - 1 and
        # 1 - r^2 round to -1 and 1, their values at s = inf, so the
        # contraction there is the s = inf column bit for bit and
        # T_s - T_inf is exactly 0: ``_subordinate`` skips those nodes.
        # One node per call, as the limit is made: BLAS may sum a batch of
        # s-nodes in another order than a single one
        t, pts = 0.05, np.array(pts)
        func = lambda p: np.cos(p[:, 0]) * (1.5 + np.sin(p[:, -1]))
        offsets, WF, _ = semigroup._contraction_operands(t, pts, func)
        s_far = semigroup._CONTRACT_S_FAR
        assert 54.0 * math.log(2.0) < s_far < 38.0
        limit = semigroup._contract(np.array([np.inf]), pts, offsets, WF)
        got = [semigroup._contract(np.array([s]), pts, offsets, WF)
               for s in (0.3, s_far, np.nextafter(s_far, np.inf), 40.0, 100.0, 1e4)]
        assert all(np.array_equal(v, limit) for v in got[1:])
        assert not np.any(got[0] == limit)

    @pytest.mark.parametrize("call", [
        lambda: ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(0.4, "kernel", 1), d=1)(
            np.linspace(-9.0, 9.0, 11)[:, None]),
        lambda: ph_kernel(0.4, np.linspace(-9.0, 9.0, 20)[:, None],
                          np.linspace(9.0, -9.0, 20)[:, None]),
    ])
    def test_exp_never_takes_its_slow_path(self, call, monkeypatch):
        # numpy's exp is ~15-100x slower below about -709, where its results
        # are subnormal or 0; the floor changes no value that matters, so
        # only this test keeps it in place.  Every exp of a 2-d array or more
        # with more than one column is a kernel batch: the s-nodes and their
        # weights are 1-d, and the pointwise kernels' s-column is (S, 1).
        lows = []
        exp = np.exp

        def spy(x, *args, **kwargs):
            v = np.asarray(x)
            if v.ndim >= 2 and v.shape[-1] > 1:
                lows.append(float(v.min()))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        call()
        assert lows and min(lows) >= semigroup._EXP_FLOOR

    def test_semigroup_runs_only_where_the_weight_is_nonzero(self, monkeypatch):
        # d^k g/dt^k underflows to 0 at small s, where the term is 0 anyway
        seen, dead = [], []
        contract, weight = semigroup._contract, semigroup._stable_weight_factor

        def counted_contract(s, *args):
            seen.append(s.copy())
            return contract(s, *args)

        def counted_weight(t, s, k):
            g = weight(t, s, k)
            dead.append(np.count_nonzero(g == 0.0))
            return g

        monkeypatch.setattr(semigroup, "_contract", counted_contract)
        monkeypatch.setattr(semigroup, "_stable_weight_factor", counted_weight)
        for k in (0, 1, 2):
            seen.clear()
            ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(0.5, "kernel", k), d=1)(
                np.linspace(-2.5, 2.5, 11)[:, None])
            s = np.concatenate(seen)
            s = s[np.isfinite(s)]  # T_inf
            assert s.size and np.all(weight(0.5, s, k) != 0.0)
        assert sum(dead) > 0

    def test_nested_kernel_route_memory(self):
        # the eigen suite's ph.semigroup_law.kernel_kernel row, which sets the
        # peak memory of ``gausslip --suite all``: the inner route runs on
        # the outer y-grid, ~540 points of ~600 nodes.  Its tracemalloc peak
        # was 13.07 MiB while the nodes and weights stayed next to F; with
        # only the offsets and weighted F kept, and the hypot span, 11.30 MiB
        inner = ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(0.45, "kernel"), d=1, tol=1e-7)
        nested = ph_apply(inner, SemigroupQuery(0.3, "kernel"), d=1, tol=1e-7)
        tracemalloc.start()
        try:
            nested(np.array([[0.8]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13.1 * 2 ** 20


_X11 = np.linspace(-2.5, 2.5, 11)[:, None]
_X2 = np.stack([np.linspace(-2.0, 2.0, 11), np.linspace(2.0, -2.0, 11)], axis=-1)
_FAR_OUT = np.array([[3200.0], [0.5]])


def _gauss_hermite_s_far(pts):
    """The rule for the subordination route's s_far, written out: sigma =
    sqrt(1 - e^{-2s}) is 1 past s = 19, and e^{-s} max|x| is below an eighth
    of the float spacing at the smallest |rule node| past log(8 max|x| /
    spacing)."""
    U = quadrature.default_rule().nodes
    return max(19.0, math.log(8.0 * np.max(np.abs(pts)) / np.spacing(np.min(np.abs(U)))))


class TestFarNodes:
    """Past a route's s_far the float64 T_s is T_inf bit for bit, so the term
    of T_s - T_inf is exactly 0 and ``_subordinate`` runs no semigroup there."""

    @pytest.mark.parametrize("pts", [np.linspace(-8.4, 8.4, 11)[:, None], _FAR_OUT,
                                     np.array([[-8.4, 3.0], [0.3, -1.2]])])
    def test_gauss_hermite_far_nodes_equal_the_limit(self, pts):
        d = pts.shape[1]
        nodes = quadrature.tensor_nodes(quadrature.default_rule(), d)
        func = lambda p: np.cos(p[:, 0]) * (1.5 + np.sin(p[:, -1]))
        s_far = semigroup._gauss_hermite_s_far(pts, quadrature.default_rule().nodes)
        assert s_far == _gauss_hermite_s_far(pts)
        limit = semigroup._mehler_gauss_hermite(func, np.array([np.inf]), pts, nodes)
        s = np.array([0.3, s_far, np.nextafter(s_far, np.inf), 60.0, 1e4])
        got = semigroup._mehler_gauss_hermite(func, s, pts, nodes)
        assert np.all(got[1:] == limit)
        assert not np.any(got[0] == limit[0])

    def test_gauss_hermite_s_far_moves_with_the_points(self):
        # at s = 40, past the contraction's s_far, e^{-s} 3200 ~ 1.4e-14 still
        # moves every rule point off its node, and T_s differs from T_inf
        # there; e^{-s} 0.5 does not
        rule = quadrature.default_rule()
        nodes = quadrature.tensor_nodes(rule, 1)
        near = semigroup._gauss_hermite_s_far(np.array([[8.4]]), rule.nodes)
        far = semigroup._gauss_hermite_s_far(_FAR_OUT, rule.nodes)
        assert near < 43.0 < 48.0 < far
        got = semigroup._mehler_gauss_hermite(lambda p: np.sin(p[:, 0]),
                                              np.array([40.0, np.inf]), _FAR_OUT, nodes)
        assert got[0, 0] != got[1, 0] and got[0, 1] == got[1, 1]

    @pytest.mark.parametrize("method, k, pts, s_far", [
        ("kernel", 0, _X11, lambda pts: 37.5),
        ("kernel", 2, _X11, lambda pts: 37.5),
        ("subordination", 1, np.linspace(-8.4, 8.4, 11)[:, None], _gauss_hermite_s_far),
        ("subordination", 0, _FAR_OUT, _gauss_hermite_s_far),
    ], ids=["kernel-k0", "kernel-k2", "subordination-near", "subordination-far-out"])
    def test_no_semigroup_call_reaches_s_far(self, method, k, pts, s_far, monkeypatch):
        # every semigroup call that ``_subordinate`` makes, against the
        # route's s_far worked out here; the half-line rule's first level
        # reaches s = e^16, so there are far nodes to skip
        got, nodes = [], []
        real, weight = semigroup._subordinate, semigroup._stable_weight_factor

        def subordinate(t, k, values, tol, *s_far):
            def recorded(s):
                got.append(np.array(s, copy=True))
                return values(s)
            return real(t, k, recorded, tol, *s_far)

        def recorded_weight(t, s, k):
            nodes.append(np.array(s, copy=True))
            return weight(t, s, k)

        monkeypatch.setattr(semigroup, "_subordinate", subordinate)
        monkeypatch.setattr(semigroup, "_stable_weight_factor", recorded_weight)
        vals = ph_apply(lambda p: hermite_eval((1,), p), SemigroupQuery(0.5, method, k),
                        d=1)(pts)
        want = ph_symbol(0.5, 1.0, k) * hermite_eval((1,), pts)
        assert np.all(np.abs(vals - want) <= 1e-7 * np.maximum(1.0, np.abs(want)))
        far = s_far(pts)
        s = np.concatenate(got)
        assert np.max(s[np.isfinite(s)]) < far
        assert np.max(np.concatenate(nodes)) >= far


class TestSubordinateCalls:
    """T_inf comes with the first level's semigroup call, as its last row,
    and the half-line rule's first two halvings share one call."""

    _LEVELS = np.array([1.0, 4.0, 9.0])

    @classmethod
    def _on_levels(cls, calls):
        def semigroup(s):
            calls.append(np.array(s, copy=True))
            return np.exp(-np.multiply.outer(s, cls._LEVELS))
        return semigroup

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_limit_ends_the_first_batch(self, k):
        calls, t, tol = [], 0.5, 1e-10
        got = semigroup._subordinate(t, k, self._on_levels(calls), tol)
        assert calls[0].size > 1 and calls[0][-1] == np.inf
        assert np.all(np.isfinite(np.concatenate([calls[0][:-1], *calls[1:]])))
        assert np.all(np.abs(got - ph_symbol(t, self._LEVELS, k)) <= tol)

    def test_limit_survives_the_per_node_retry(self):
        # a semigroup that rejects its first batch: eval_batch then calls
        # the integrand node by node, and the first of those calls brings
        # T_inf (alone here: at s = e^{-16} the weight underflows to 0)
        calls, t, tol = [], 0.5, 1e-10
        on_levels = self._on_levels(calls)

        def rejects_once(s):
            if not calls:
                calls.append(None)
                raise ValueError("batch rejected")
            return on_levels(s)

        got = semigroup._subordinate(t, 1, rejects_once, tol)
        assert calls[1].tolist() == [np.inf]
        assert np.all(np.isfinite(np.concatenate(calls[2:])))
        assert np.all(np.abs(got - ph_symbol(t, self._LEVELS, 1)) <= tol)

    def test_kernel_request_saves_two_semigroup_calls(self, monkeypatch):
        # d/dt P_t h_2 at t = 0.5, tol 1e-9, on 11 points.  With a call of
        # its own for T_inf and one per halving, the same 63 s-nodes took
        # three integrand calls and four contractions; now the first level
        # (u = log s = -16..16) with T_inf as its last row, then the first
        # halving's odd multiples of 1/2 over -7..3 and the second's of 1/4
        seen, contracted = [], []
        halfline, contract = semigroup.integrate_halfline, semigroup._contract

        def recorded_halfline(g, *args, **kwargs):
            def recorded(s):
                seen.append(np.log(s))
                return g(s)
            return halfline(recorded, *args, **kwargs)

        def recorded_contract(s, *args):
            contracted.append(np.log(s))
            return contract(s, *args)

        monkeypatch.setattr(semigroup, "integrate_halfline", recorded_halfline)
        monkeypatch.setattr(semigroup, "_contract", recorded_contract)
        xs = np.linspace(-2.5, 2.5, 11)[:, None]
        got = ph_apply(lambda p: hermite_eval((2,), p), SemigroupQuery(0.5, "kernel", 1),
                       d=1, tol=1e-9)(xs)
        assert np.max(np.abs(got - ph_symbol(0.5, 2.0, 1) * hermite_eval((2,), xs))) <= 1e-8
        assert len(seen) == len(contracted) == 2
        halvings = np.concatenate([0.5 * np.arange(-13.0, 6.0, 2.0),
                                   0.25 * np.arange(-27.0, 12.0, 2.0)])
        np.testing.assert_allclose(seen[0], np.arange(-16.0, 17.0), atol=1e-12)
        np.testing.assert_allclose(seen[1], halvings, atol=1e-12)
        # the weight underflows below u = -9 and s_far = 37.5 cuts at u = 3
        np.testing.assert_allclose(contracted[0], np.append(np.arange(-9.0, 4.0), np.inf),
                                   atol=1e-12)
        np.testing.assert_allclose(contracted[1], halvings, atol=1e-12)


class TestMemory:
    """tracemalloc peaks of one call after a warm-up call.  The half-line rule
    passes a whole level of s-nodes per call, so the s-integrands block their
    temporaries over s-nodes and points within ``_BLOCK_VALUES``.  Each
    bound is the larger of 4 MiB and the peak when the rule passed at most
    8 s-nodes per call (in MiB: 0.77, 9.02, 1.13, 13.19 and 0.79; now 2.25,
    2.28, 2.00, 13.19 and 1.33).  The d = 3 Gauss-Hermite point is held to
    its own peak, 2.60 MiB, since its rule is blocked over its nodes as
    well (128.01 MiB at 8 s-nodes per call, then 20.08 MiB unblocked)."""

    @pytest.mark.parametrize("call, bound", [
        (lambda: ph_apply(lambda p: hermite_eval((2,), p), SemigroupQuery(0.05, "kernel"),
                          d=1, tol=1e-9)(_X11), 4.0),
        (lambda: ph_apply(lambda p: hermite_eval((1, 1), p),
                          SemigroupQuery(0.5, "subordination"), d=2)(_X2), 9.03),
        (lambda: ou_apply(lambda p: hermite_eval((1, 1), p), SemigroupQuery(0.5, "kernel"),
                          d=2)(_X2), 4.0),
        (lambda: ph_apply(lambda p: hermite_eval((1, 1), p), SemigroupQuery(1.0, "kernel"),
                          d=2, tol=1e-9)(np.array([[0.5, -0.25]])), 13.2),
        (lambda: kernel_derivative_l1(0.1, 0.0, 2), 4.0),
        (lambda: ph_apply(lambda p: hermite_eval((1, 0, 1), p),
                          SemigroupQuery(0.5, "subordination"), d=3, tol=1e-6)(
            np.array([[0.3, -0.2, 0.1]])), 2.61),
    ], ids=["ph-kernel-d1", "subordination-d2", "ou-d2", "ph-kernel-d2-point", "kernel-l1",
            "subordination-d3-point"])
    def test_peak(self, call, bound):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2 ** 20


def _axis_span(c):
    """The kernel route's y-span on an axis at x = c: where e^{-s} c +-
    8 sqrt(1 - e^{-2s}) reach over s.  np.hypot, as the route takes it:
    math.hypot differs from it in the last bit for some c (c = 6.7151061075208816)."""
    return -float(np.hypot(min(c, 0.0), 8.0)), float(np.hypot(max(c, 0.0), 8.0))


# the gradings as (inner width in spike widths, growth): the kernel route's,
# for f(y) - f(x), and ``kernel_derivative_l1``'s, for |d^k p|
_APPLY = (1.0, 2.0)
_L1 = (0.5, 1.5)


def _one_point_panels(t, c, grading=_APPLY):
    """Nodes and weights of one point's graded axis, as the kernel route spans it."""
    lo, hi = _axis_span(c)
    y, w = semigroup._graded_panels(t, np.array([c]), np.array([lo]), np.array([hi]),
                                    semigroup._Grading(*grading))
    return y[0], w[0]


def _graded_breaks_loop(lo, hi, c, t, grading):
    """Reference: the breakpoints one width at a time, outward from c."""
    inner, growth = grading
    sides = []
    for end, sign in ((lo, -1.0), (hi, 1.0)):
        x, w, side = c, inner * semigroup._min_sigma(t), []
        while x != end:
            x = min(max(x + sign * w, lo), hi)
            side.append(x)
            w = min(w * growth, 1.0)
        sides.append(side)
    return np.array(sides[0][::-1] + [c] + sides[1])


class TestGradedPanels:
    def test_each_route_passes_its_grading(self, monkeypatch):
        # the kernel route grades for f(y) - f(x), which vanishes at y = x;
        # kernel_derivative_l1 keeps the finer grading for the kinks of |d^k p|
        seen = []
        graded = semigroup._graded_panels

        def spy(t, c, lo, hi, grading):
            seen.append(tuple(grading))
            return graded(t, c, lo, hi, grading)

        monkeypatch.setattr(semigroup, "_graded_panels", spy)
        ph_apply(lambda p: np.cos(p[:, 0]) * p[:, 1], SemigroupQuery(0.3, "kernel"), d=2)(
            np.array([[0.5, -0.25]]))
        assert seen == [_APPLY, _APPLY]
        seen.clear()
        kernel_derivative_l1(0.3, 0.5, 1)
        assert seen == [_L1]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
           st.floats(1e-3, 5.0))
    def test_batch_rows_match_single_points(self, xs, t):
        pts = np.array(xs)[:, None]
        axes, F, fx = semigroup._ph_graded_grids(t, pts, lambda p: 1.0 + p[:, 0])
        (y, w), = axes
        assert np.array_equal(fx, 1.0 + pts[:, 0])
        for i, c in enumerate(xs):
            y1, w1 = _one_point_panels(t, c)
            y0, w0 = gauss_legendre_panels(_graded_breaks_loop(*_axis_span(c), c, t, _APPLY))
            assert np.array_equal(y1, y0) and np.array_equal(w1, w0)
            used = w[i] > 0
            assert np.array_equal(y[i, used], y1) and np.array_equal(w[i, used], w1)
            assert np.array_equal(F[i, used], 1.0 + y1)
            assert not F[i, ~used].any()

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(1e-3, 5.0))
    def test_l1_grading_matches_the_loop(self, c, t):
        y1, w1 = _one_point_panels(t, c, _L1)
        y0, w0 = gauss_legendre_panels(_graded_breaks_loop(*_axis_span(c), c, t, _L1))
        assert np.array_equal(y1, y0) and np.array_equal(w1, w0)

    @pytest.mark.parametrize("t", [1e-4, 0.05, 1.0, 20.0])
    def test_rows_are_graded_partitions_of_their_spans(self, t):
        _check_graded_partitions(t, _APPLY)

    @pytest.mark.parametrize("t", [1e-4, 0.05, 1.0, 20.0])
    def test_l1_rows_are_graded_partitions_of_their_spans(self, t):
        _check_graded_partitions(t, _L1)


def _check_graded_partitions(t, grading):
    c = np.array([0.0, 0.3, -9.0, 9.0, 4.5])
    lo, hi = np.minimum(c, 0.0) - 8.0, np.maximum(c, 0.0) + 8.0
    y, w = semigroup._graded_panels(t, c, lo, hi, semigroup._Grading(*grading))
    inner, growth = grading
    inner *= semigroup._min_sigma(t)
    assert w.sum(axis=1) == pytest.approx(hi - lo, rel=1e-13)
    for i in range(c.size):
        used = w[i] > 0
        # the zero weights pad the row end
        assert used[:used.sum()].all()
        widths = w[i, used].reshape(-1, 15).sum(axis=1)
        breaks = lo[i] + np.r_[0.0, np.cumsum(widths)]
        j = int(np.argmin(np.abs(breaks - c[i])))
        assert breaks[j] == pytest.approx(c[i], abs=1e-12)
        assert widths[j - 1] == pytest.approx(inner, rel=1e-9)
        assert widths[j] == pytest.approx(inner, rel=1e-9)
        if inner * growth < 1.0:
            assert widths[j + 1] == pytest.approx(inner * growth, rel=1e-9)
        assert widths.max() <= 1.0 + 1e-12


class TestKernelTimeDerivative:
    def test_mass_is_conserved(self):
        ys, w = gauss_legendre_panels(np.linspace(-9.0, 9.0, 181))
        vals = ph_kernel_time_derivative(0.5, np.array([[0.0]]), ys[:, None], 1)
        assert abs(float(w @ vals)) <= 1e-7

    def test_matches_central_difference(self):
        t, x, y = 0.8, 0.3, -0.4
        got = ph_kernel_time_derivative(t, x, y, 1)
        h = min(t / 8.0, 1e-3)
        fd = (ph_kernel(t + h, x, y) - ph_kernel(t - h, x, y)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-5)

    def test_second_derivative_matches_central_difference(self):
        t, x, y = 0.8, 0.3, -0.4
        got = ph_kernel_time_derivative(t, x, y, 2)
        h = 1e-3
        fd = (ph_kernel(t + h, x, y) - 2 * ph_kernel(t, x, y)
              + ph_kernel(t - h, x, y)) / h**2
        assert got == pytest.approx(fd, rel=1e-5)

    def test_third_derivative_matches_central_difference(self):
        t, x, y = 0.9, 0.2, 0.5
        got = ph_kernel_time_derivative(t, x, y, 3)
        h = 2e-3
        fd = (ph_kernel(t + 2 * h, x, y) - 2 * ph_kernel(t + h, x, y)
              + 2 * ph_kernel(t - h, x, y) - ph_kernel(t - 2 * h, x, y)) / (2 * h**3)
        assert got == pytest.approx(fd, rel=1e-4)

    def test_spectral_sign_consistency(self):
        # ∫ dt p(t, x, y) h_1(y) dy = -e^{-t} h_1(x)
        t, x = 0.6, 1.0
        ys, w = gauss_legendre_panels(np.linspace(-10.0, 12.0, 221))
        vals = ph_kernel_time_derivative(t, np.array([[x]]), ys[:, None], 1)
        got = float(w @ (vals * hermite_eval((1,), ys)))
        assert got == pytest.approx(-math.exp(-t) * hermite_eval((1,), x), abs=1e-6)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            ph_kernel_time_derivative(0.5, 0.0, 0.0, 0)
        with pytest.raises(NotImplementedError):
            ph_kernel_time_derivative(0.5, 0.0, 0.0, 4)


def _kink_aware_semigroup(f, xs):
    """T_s f at the points xs (X,) by ``scipy.integrate.quad`` per (s, x),
    as ``_subordinate`` takes a semigroup: y = e^{-s} x + sqrt(1 - e^{-2s}) z
    over |z| <= 9 (dropped mass erfc(9) ~ 4e-37), with breakpoints where y
    meets the kinks -1, 0 and 1 of min(|y|, 1)^alpha."""
    quad = pytest.importorskip("scipy.integrate").quad

    def semigroup_values(s):
        out = np.empty((s.size, xs.size))
        for j, sj in enumerate(s):
            r = math.exp(-sj)
            sig = math.sqrt(-math.expm1(-2.0 * sj))
            for i, x in enumerate(xs):
                m = r * x
                kinks = [z for z in ((c - m) / sig for c in (-1.0, 0.0, 1.0)) if -9.0 < z < 9.0]
                v, _ = quad(lambda z: f(m + sig * z) * math.exp(-z * z), -9.0, 9.0,
                            points=kinks or None, epsabs=1e-13, epsrel=1e-13, limit=400)
                out[j, i] = v / SQRT_PI
        return out

    return semigroup_values


class TestKinkedInput:
    """f_alpha = min(|x|, 1)^alpha, kinked at -1, 0 and 1, against an oracle
    that integrates T_s f in y with breakpoints at the kinks and feeds it to
    ``_subordinate``: the s-rule is the routes', the y-rule is exact to
    ~1e-13."""

    @pytest.mark.parametrize("k", [0, 1])
    def test_oracle_matches_both_routes_on_cos(self, k):
        xs = np.array([-2.1, 0.0, 0.4, 1.7])
        want = semigroup._subordinate(0.2, k, _kink_aware_semigroup(math.cos, xs), 1e-10)
        for method in ("kernel", "subordination"):
            got = ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(0.2, method, k),
                           tol=1e-10)(xs[:, None])
            assert np.max(np.abs(got - want)) <= 1e-12, method

    @pytest.mark.xfail(strict=True, reason="the kernel route's y-panels straddle the kinks "
                       "of f, and nothing estimates that error")
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_kernel_derivative_of_a_kinked_input(self, alpha):
        # k = 1 at t = 0.05, tol 1e-9: over alpha in (0.3, 0.5, 0.8), t in
        # (0.05, 0.2, 0.5, 1) and 11 points in [-2.5, 2.5] the route is off by
        # a median 3.4e-4 and at most 2.8e-3 (2.0e-4 and 6.2e-3 when it
        # contracted f itself, on a finer grading)
        xs = np.array([-2.35, 0.0, 0.4, 0.9])
        f = lambda y: min(abs(y), 1.0) ** alpha
        want = semigroup._subordinate(0.05, 1, _kink_aware_semigroup(f, xs), 1e-9)
        got = ph_apply(lambda p: np.minimum(np.abs(p[:, 0]), 1.0) ** alpha,
                       SemigroupQuery(0.05, "kernel", 1), tol=1e-9)(xs[:, None])
        assert np.max(np.abs(got - want)) <= 1e-9


class TestNanTol:
    @pytest.mark.parametrize("call", [
        lambda: ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(0.5, "kernel", 1),
                         tol=math.nan)(0.3),
        lambda: ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(0.5, "subordination"),
                         tol=math.nan)(0.3),
        lambda: ph_kernel(0.5, 0.3, -0.2, tol=math.nan),
        lambda: kernel_derivative_l1(0.5, 0.3, 1, tol=math.nan),
    ], ids=["kernel", "subordination", "ph_kernel", "kernel_derivative_l1"])
    def test_every_route_rejects_a_nan_tol(self, call):
        # integrate_halfline checks tol before the first integrand call
        with pytest.raises(ValueError, match="tol must be positive"):
            call()


class TestKernelDerivativeL1:
    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time(self, t):
        # t = inf gave stable_density nan and blamed the kernel's callable
        for call in (lambda: kernel_derivative_l1(t, 0.0, 1), lambda: ph_kernel(t, 0.0, 0.0),
                     lambda: stable_density(t, 1.0), lambda: derivative_weight_mass(t, 1),
                     lambda: mehler_kernel(t, 0.0, 0.0)):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_first_order_bound(self):
        for t in (0.1, 0.5, 1.0, 2.0):
            res = kernel_derivative_l1(t, 0.0, 1)
            assert t * res.value <= 2.0
            assert res.tail_bound <= 1e-20

    def test_majorant_scales_exactly(self):
        products = [t * derivative_weight_mass(t, 1) for t in (0.1, 0.5, 1.0, 2.0)]
        assert max(products) / min(products) == pytest.approx(1.0, rel=1e-8)
        assert max(products) <= 2.0

    def test_second_order_bound(self):
        for t in (0.1, 0.5, 1.0, 2.0):
            res = kernel_derivative_l1(t, 0.0, 2)
            assert t * t * res.value <= 16.0

    def test_third_order_smoke(self):
        res = kernel_derivative_l1(1.0, 0.5, 3)
        assert res.value > 0.0

    def test_weight_mass_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        # with a = t^2/2s, d^k/dt^k [t e^{-t^2/4s}] = q_k(a) e^{-a/2} t^{1-k}
        q = {1: lambda a: 1 - a, 2: lambda a: a * a - 3 * a,
             3: lambda a: -3 * a + 6 * a * a - a ** 3}
        with mpmath.workdps(30):
            zeros = {1: [1], 2: [3], 3: [3 - mpmath.sqrt(6), 3 + mpmath.sqrt(6)]}
            for k in (1, 2, 3):
                for t in map(mpmath.mpf, ("1e-3", "0.01", "0.02", "1", "7")):
                    def mass(s):
                        a = t * t / (2 * s)
                        return abs(q[k](a)) * mpmath.exp(-a / 2) * s ** -1.5

                    # |q_k| has kinks at its zeros
                    kinks = sorted(t * t / (2 * a) for a in zeros[k])
                    want = (mpmath.quad(mass, [0, *kinks, mpmath.inf]) * t ** (1 - k)
                            / (2 * mpmath.sqrt(mpmath.pi)))
                    assert derivative_weight_mass(float(t), k) == pytest.approx(
                        float(want), rel=1e-15)

    def test_weight_mass_stops_within_the_node_bound(self):
        """At t = 1e-3 the k = 3 mass is ~6e9, and |d^3 g| has kinks at the
        zeros of d^3 g, where the trapezoid rule converges only like h^2: no
        level reaches float64 rounding of the mass before the halving cap.

        Worst case of one call: the first level walks |u| <= cap at the first
        step h (2 cap / h + 1 nodes), and each of the 8 halvings adds the
        midpoints of the last level, (2 cap / h) 2^(l-1) at halving l:
        (2 cap / h) 2^8 + 1 nodes.  That is 26 * 2^8 + 1 = 6657 in tau
        (cap 6.5, h = 0.5) and 1044 * 2^8 + 1 = 267265 in log s (cap 522,
        h = 1).  One call per step: the first level, at most
        ceil((cap - first) / 4h) steps of the walk and the 8 halving levels.
        """
        for rapid, m, bound in ((False, quadrature._EXP_SINH, 6657),
                                (True, quadrature._LOG, 267265)):
            nodes = []

            def mass(s):
                nodes.append(np.size(s))
                return np.abs(semigroup._stable_weight_factor(1e-3, s, 3))

            with pytest.raises(ConvergenceError) as err:
                integrate_halfline(mass, tol=1e-10, rapid=rapid)
            assert err.value.estimate > 0.0
            # the levels never agreed, so no finite bound is claimed
            assert err.value.error_bound >= abs(
                err.value.estimate - derivative_weight_mass(1e-3, 3))
            assert round(2 * m.cap / m.step) * 2 ** quadrature._HALVINGS + 1 == bound
            assert sum(nodes) <= bound
            walk = math.ceil((m.cap - m.first) / (4 * m.step))
            assert len(nodes) <= 1 + walk + quadrature._HALVINGS

    def test_order_validation(self):
        with pytest.raises(ValueError):
            kernel_derivative_l1(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            kernel_derivative_l1(-1.0, 0.0, 1)
