import math

import numpy as np
import pytest

from gausslip.errors import ConvergenceError, EvaluationError
from gausslip.quadrature import (
    QuadratureRule,
    gauss_hermite_rule,
    gauss_legendre_panels,
    integrate_gaussian,
    integrate_halfline,
    tensor_nodes,
)

SQRT_PI = math.sqrt(math.pi)


class TestGaussHermiteRule:
    def test_one_point_rule_is_forced_by_symmetry(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([SQRT_PI])

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)

    def test_weight_sum_is_gamma_half(self):
        for m in (1, 5, 20, 64):
            rule = gauss_hermite_rule(m)
            assert float(np.sum(rule.weights)) == pytest.approx(math.gamma(0.5), rel=1e-12)

    def test_quadratic_moment_matches_gamma_oracle(self):
        rule = gauss_hermite_rule(20)
        got = float(rule.weights @ rule.nodes**2)
        assert got == pytest.approx(math.gamma(1.5), rel=1e-12)

    def test_polynomial_exactness_up_to_2m_minus_1(self):
        # moments against e^{-x^2}: odd vanish, even are Gamma(j + 1/2)
        m = 8
        rule = gauss_hermite_rule(m)
        for j in range(m):
            got = float(rule.weights @ rule.nodes ** (2 * j))
            assert got == pytest.approx(math.gamma(j + 0.5), rel=1e-12)

    def test_weights_positive_invariant(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=[0.0, 1.0], weights=[1.0, -1.0])
        with pytest.raises(ValueError):
            QuadratureRule(nodes=[0.0, 1.0], weights=[1.0])

    def test_tensor_cache_tells_rules_with_shared_nodes_apart(self):
        rule = gauss_hermite_rule(6)
        doubled = QuadratureRule(nodes=rule.nodes, weights=2.0 * rule.weights)
        for d in (1, 2):
            one = lambda p: np.ones(p.shape[0])
            assert integrate_gaussian(one, d, rule) == pytest.approx(1.0, rel=1e-14)
            assert integrate_gaussian(one, d, doubled) == pytest.approx(2.0 ** d, rel=1e-14)


class TestIntegrateGaussian:
    def test_probability_measure(self):
        for d in (1, 2, 3):
            got = integrate_gaussian(lambda p: np.ones(p.shape[0]), d,
                                     gauss_hermite_rule(8))
            assert got == pytest.approx(1.0, abs=1e-13)

    def test_normalized_hermite_squared(self):
        from gausslip.hermite import hermite_eval
        got = integrate_gaussian(lambda p: hermite_eval((2,), p) ** 2, 1,
                                 gauss_hermite_rule(64))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_cross_term_vanishes_by_parity(self):
        from gausslip.hermite import hermite_eval
        got = integrate_gaussian(
            lambda p: hermite_eval((1, 0), p) * hermite_eval((0, 1), p), 2,
            gauss_hermite_rule(24))
        assert got == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("j", range(12))
    def test_even_moments(self, j):
        # ∫ x^{2j} dgamma = (2j)! / (4^j j!)
        want = math.factorial(2 * j) / (4**j * math.factorial(j))
        got = integrate_gaussian(lambda p: p[:, 0] ** (2 * j), 1,
                                 gauss_hermite_rule(max(16, j + 1)))
        assert got == pytest.approx(want, rel=1e-10)

    def test_doubling_nodes_never_hurts_on_polynomials(self):
        tests = [(lambda p: p[:, 0] ** 6, 15.0 / 8.0),
                 (lambda p: p[:, 0] ** 10, math.factorial(10) / (4**5 * math.factorial(5)))]
        eps = np.finfo(float).eps
        for m in (8, 16, 32):
            for f, want in tests:
                coarse = abs(integrate_gaussian(f, 1, gauss_hermite_rule(m)) - want)
                fine = abs(integrate_gaussian(f, 1, gauss_hermite_rule(2 * m)) - want)
                # both rules are exact here, so only roundoff separates them
                assert fine <= coarse + 16 * eps * abs(want)

    def test_non_finite_value_reported_with_node(self):
        def bad(p):
            out = np.ones(p.shape[0])
            out[p[:, 0] > 0] = np.nan
            return out

        with pytest.raises(EvaluationError) as err:
            integrate_gaussian(bad, 1, gauss_hermite_rule(8))
        assert err.value.node is not None
        with pytest.raises(EvaluationError):
            integrate_gaussian(lambda p: math.inf, 1, gauss_hermite_rule(8))

    def test_batch_error_other_than_type_or_value_propagates(self):
        calls = []

        def fails_on_batch(p):
            calls.append(p.shape)
            raise RuntimeError("device lost")

        with pytest.raises(RuntimeError, match="device lost"):
            integrate_gaussian(fails_on_batch, 2, gauss_hermite_rule(16))
        assert calls == [(256, 2)]

    def test_point_by_point_fallback_for_scalar_callables(self):
        got = integrate_gaussian(lambda p: math.cos(p[0]), 1, gauss_hermite_rule(32))
        assert got == pytest.approx(math.exp(-0.25), rel=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            integrate_gaussian(lambda p: np.ones(p.shape[0]), 4, gauss_hermite_rule(4))


class TestHalfline:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_rejects_a_tol_that_is_not_positive(self, tol):
        # a nan tol made 128 integrand calls out to the |u| = 522 cap and
        # then blamed the integrand for diverging
        calls = []

        def g(s):
            calls.append(1)
            return np.exp(-s)

        for rapid in (False, True):
            with pytest.raises(ValueError, match="tol must be positive"):
                integrate_halfline(g, tol, rapid=rapid)
        assert not calls

    def test_gamma_half(self):
        got = integrate_halfline(lambda v: np.exp(-v) * v ** -0.5, 1e-10)
        assert got == pytest.approx(math.gamma(0.5), rel=1e-10)

    def test_gamma_three_halves(self):
        got = integrate_halfline(lambda v: np.exp(-v) * v ** 0.5, 1e-10)
        assert got == pytest.approx(math.gamma(1.5), rel=1e-10)

    def test_stable_density_mass(self):
        t = 1.0

        def g(s):
            return (t / (2 * SQRT_PI)) * np.exp(-t * t / (4 * s)) * s ** -1.5

        got = integrate_halfline(g, 1e-10)
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_change_of_variable_invariance(self):
        # ∫ e^{-t^2/4s} s^{-3/2} ds computed directly and after v = t^2/4s
        t = 1.3

        def direct(s):
            return np.exp(-t * t / (4 * s)) * s ** -1.5

        def substituted(v):
            # v = t^2 / 4s pulls the integrand to the Gamma(1/2) form
            return (2.0 / t) * np.exp(-v) * v ** -0.5

        a = integrate_halfline(direct, 1e-9)
        b = integrate_halfline(substituted, 1e-9)
        assert a == pytest.approx(b, rel=1e-8)
        assert a == pytest.approx(2 * SQRT_PI / t, rel=1e-8)

    def test_large_integrals_stop_at_float_rounding(self):
        # for c >= 1e6 the absolute tolerance is below the rounding of c
        for c in 10.0 ** np.arange(13):
            got = integrate_halfline(lambda s: c * np.exp(-s), 1e-10)
            assert abs(got - c) <= 1e-14 * c

    def test_divergent_integrand_raises_with_estimate(self):
        for rapid in (False, True):
            with pytest.raises(ConvergenceError, match="not negligible at") as err:
                integrate_halfline(lambda s: 1.0 / (1.0 + s), 1e-8, rapid=rapid)
            assert err.value.estimate is not None
            assert err.value.error_bound == math.inf

    def test_non_finite_integrand_raises(self):
        with pytest.raises(EvaluationError):
            integrate_halfline(lambda s: np.where(s > 1.0, np.nan, 1.0) * np.exp(-s), 1e-8)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_halfline(lambda s: np.exp(-s), -1e-8)

    def test_payload_in_one_call_per_step(self):
        # the first level (|tau| <= 3 at h = 0.5), each step of the walk (at
        # most four nodes a side, on the first step's grid) and each halving
        # level (the odd multiples of the new step) come in one call each
        taus = []

        def g(s):
            taus.append(np.arcsinh(np.log(s) / (0.5 * math.pi)))
            return np.stack([np.exp(-s), s * np.exp(-s), np.exp(-2.0 * s)], axis=-1)

        got = integrate_halfline(g, 1e-10)
        assert got == pytest.approx([1.0, 1.0, 0.5], rel=1e-10)
        np.testing.assert_allclose(taus[0], 0.5 * np.arange(-6, 7), atol=1e-12)
        walk = [tau for tau in taus[1:] if np.allclose(2.0 * tau, np.round(2.0 * tau))]
        levels = taus[1 + len(walk):]
        assert walk and all(tau.size <= 8 and np.all(np.abs(tau) > 3.0) for tau in walk)
        assert len(levels) >= 2
        for level, tau in enumerate(levels, start=1):
            h = 0.5 / 2 ** level
            assert round(tau[0] / h) % 2 == 1
            np.testing.assert_allclose(tau, h * np.arange(tau[0] / h, tau[-1] / h + 1.0, 2.0),
                                       atol=1e-12)
            assert tau.size == levels[0].size * 2 ** (level - 1)

    def test_log_walk_grows_one_side_then_trims(self):
        # e^{-a/s - s} with a = t^2/4 tiny has its left tail far below
        # u = log s = -16 and its right tail well inside u = 16: the walk
        # carries only negative u, and the trim drops the right side's
        # negligible nodes before the first halving
        mpmath = pytest.importorskip("mpmath")
        t, tol = 1e-4, 1e-10
        a = t * t / 4
        us = []

        def g(s):
            us.append(np.log(s))
            return np.exp(-a / s - s)

        got = integrate_halfline(g, tol, rapid=True)
        np.testing.assert_allclose(us[0], np.arange(-16.0, 17.0), atol=1e-12)
        np.testing.assert_allclose(us[1], -np.arange(17.0, 21.0), atol=1e-12)
        np.testing.assert_allclose(us[2], -np.arange(21.0, 25.0), atol=1e-12)
        np.testing.assert_allclose(us[3], np.arange(-22.5, 4.0), atol=1e-12)
        root = mpmath.sqrt(mpmath.mpf(a))
        assert abs(got - float(2 * root * mpmath.besselk(1, 2 * root))) <= tol

    def test_geometric_tail_accepts_the_second_halving(self):
        # ∫ e^{-s - 1/4s} ds = K_1(1) in log s: each halving cuts the
        # correction by far more than half, so the tail of the corrections
        # meets tol at the second halving, one level before two levels agree
        calls = []

        def g(s):
            calls.append(s.size)
            return np.exp(-s - 0.25 / s)

        for tol in (1e-8, 1e-10, 1e-12):
            calls.clear()
            got = integrate_halfline(g, tol, rapid=True)
            assert abs(got - 0.6019072301972346) <= tol
            # the first level and two halvings; the walk adds no node
            assert len(calls) == 3

    def test_cancellation_below_rounding_raises(self):
        # ∫ c (e^{-s} - 2 e^{-2s}) ds = 0, but the terms carry mass ~c, whose
        # float64 rounding is far above tol
        with pytest.raises(ConvergenceError, match="cancellation") as err:
            integrate_halfline(lambda s: 1e12 * (np.exp(-s) - 2.0 * np.exp(-2.0 * s)), 1e-10)
        assert err.value.error_bound == math.inf

    def test_scalar_fallback_callable(self):
        got = integrate_halfline(lambda s: math.exp(-s), 1e-9)
        assert got == pytest.approx(1.0, rel=1e-9)


class TestPanels:
    def test_one_partition_per_row(self):
        rows = np.array([[-1.0, 0.0, 0.5, 2.0], [0.0, 0.25, 1.0, 1.0]])
        nodes, w = gauss_legendre_panels(rows)
        assert nodes.shape == w.shape == (2, 45)
        one, w_one = gauss_legendre_panels(rows[0])
        assert np.array_equal(nodes[0], one) and np.array_equal(w[0], w_one)
        # the zero-width panel at the row end: nodes at 1.0, weight 0
        assert np.all(nodes[1, 30:] == 1.0) and np.all(w[1, 30:] == 0.0)
        assert w.sum(axis=1) == pytest.approx([3.0, 1.0], rel=1e-14)

    @pytest.mark.parametrize("breaks", [[1.0], [0.0, 1.0, 0.5], [0.0, math.nan, 1.0],
                                        [2.0, 2.0], [[0.0, 1.0], [1.0, 1.0]]])
    def test_rejects_bad_partitions(self, breaks):
        with pytest.raises(ValueError, match="partition"):
            gauss_legendre_panels(breaks)

    def test_panel_rule_integrates_smooth_function(self):
        nodes, w = gauss_legendre_panels(np.linspace(-6.0, 6.0, 25))
        got = float(w @ np.exp(-nodes**2))
        assert got == pytest.approx(SQRT_PI, rel=1e-13)
