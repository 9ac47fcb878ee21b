import math

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
        semigroup._subordination_multiplier.cache_clear()
        got = semigroup._subordination_multiplier(t, 400, 1e-9)
        assert abs(got - math.exp(-20.0 * t)) <= 1e-9

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

    def test_subordination_derivative_unsupported(self):
        e = HermiteExpansion(1, 1, {(1,): 1.0})
        with pytest.raises(NotImplementedError):
            ph_apply(e, SemigroupQuery(0.5, "subordination", 1))

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
        # s ~ t^2 needs no finer step at small t; 8 s-nodes at most per call
        nodes = []
        weight = semigroup._stable_weight_factor

        def counted(t, s, k):
            nodes.append(np.size(s))
            return weight(t, s, k)

        monkeypatch.setattr(semigroup, "_stable_weight_factor", counted)
        for t, bound in ((0.05, 80), (0.45, 110)):
            nodes.clear()
            op = ph_apply(lambda p: np.cos(p[:, 0]), SemigroupQuery(t, method), d=1, tol=1e-8)
            op(np.linspace(-2.5, 2.5, 11)[:, None])
            assert sum(nodes) <= bound
            assert max(nodes) <= 8

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
        # each point's y-span reaches 8 past 0 and past x_i, since the Mehler
        # centres e^{-s} x lie between them; 4 short of 0 is ~1e-9 off here
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
        # point by point, each grid in row-major order
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
        assert np.array_equal(calls[0], np.concatenate(want))

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


def _one_point_panels(t, c):
    """Nodes and weights of one point's graded axis, as the kernel route spans it."""
    c = np.array([c])
    y, w = semigroup._graded_panels(t, c, np.minimum(c, 0.0) - 8.0, np.maximum(c, 0.0) + 8.0)
    return y[0], w[0]


def _graded_breaks_loop(lo, hi, c, inner):
    """Reference: the breakpoints one width at a time, outward from c."""
    sides = []
    for end, sign in ((lo, -1.0), (hi, 1.0)):
        x, w, side = c, inner, []
        while x != end:
            x = min(max(x + sign * w, lo), hi)
            side.append(x)
            w = min(w * 1.5, 1.0)
        sides.append(side)
    return np.array(sides[0][::-1] + [c] + sides[1])


class TestGradedPanels:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
           st.floats(1e-3, 5.0))
    def test_batch_rows_match_single_points(self, xs, t):
        pts = np.array(xs)[:, None]
        axes, F = semigroup._ph_graded_grids(t, pts, lambda p: 1.0 + p[:, 0])
        (y, w), = axes
        inner = 0.5 * semigroup._min_sigma(t)
        for i, c in enumerate(xs):
            y1, w1 = _one_point_panels(t, c)
            y0, w0 = gauss_legendre_panels(
                _graded_breaks_loop(min(c, 0.0) - 8.0, max(c, 0.0) + 8.0, c, inner))
            assert np.array_equal(y1, y0) and np.array_equal(w1, w0)
            used = w[i] > 0
            assert np.array_equal(y[i, used], y1) and np.array_equal(w[i, used], w1)
            assert np.array_equal(F[i, used], 1.0 + y1)
            assert not F[i, ~used].any()

    @pytest.mark.parametrize("t", [1e-4, 0.05, 1.0, 20.0])
    def test_rows_are_graded_partitions_of_their_spans(self, t):
        c = np.array([0.0, 0.3, -9.0, 9.0, 4.5])
        lo, hi = np.minimum(c, 0.0) - 8.0, np.maximum(c, 0.0) + 8.0
        y, w = semigroup._graded_panels(t, c, lo, hi)
        inner = 0.5 * semigroup._min_sigma(t)
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
        h = 1).
        """
        for rapid, cap, step, bound in (
                (False, quadrature._DE_TAU_CAP, quadrature._DE_STEP, 6657),
                (True, quadrature._LOG_U_CAP, quadrature._LOG_STEP, 267265)):
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
            assert round(2 * cap / step) * 2 ** quadrature._DE_HALVINGS + 1 == bound
            assert sum(nodes) <= bound
            assert max(nodes) <= 8

    def test_order_validation(self):
        with pytest.raises(ValueError):
            kernel_derivative_l1(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            kernel_derivative_l1(-1.0, 0.0, 1)
