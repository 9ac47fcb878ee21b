import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslip.errors import CancellationWarning
from gausslip.forward_diff import (
    ForwardDifferenceQuery,
    binomial_row,
    difference_bound_probe,
    forward_difference,
    forward_difference_curve,
    nested_integral_form,
)
from gausslip.hermite import eval_expansion, project
from gausslip.semigroup import SemigroupQuery, ph_apply


class TestBasics:
    def test_binomials_match_comb(self):
        for k in (0, 1, 5, 17, 64):
            assert binomial_row(k) == [math.comb(k, j) for j in range(k + 1)]
        with pytest.raises(ValueError):
            binomial_row(65)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ForwardDifferenceQuery(0.0, 0.1, 0)
        with pytest.raises(ValueError):
            ForwardDifferenceQuery(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            ForwardDifferenceQuery(-0.1, 0.1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["t", "s"])
    def test_query_rejects_non_finite_times(self, field, bad):
        # forward_difference returned nan for a nan t or s
        args = {"t": 0.5, "s": 0.1, "k": 2, field: bad}
        with pytest.raises(ValueError, match="finite"):
            ForwardDifferenceQuery(**args)

    def test_first_order_is_plain_difference(self):
        f = math.sin
        q = ForwardDifferenceQuery(0.3, 0.2, 1)
        assert forward_difference(f, q) == pytest.approx(f(0.5) - f(0.3), rel=1e-15)

    def test_second_difference_of_quadratic_is_constant(self):
        q = ForwardDifferenceQuery(1.7, 0.3, 2)
        assert forward_difference(lambda v: v * v, q) == pytest.approx(0.18, rel=1e-12)
        q = ForwardDifferenceQuery(0.0, 0.3, 2)
        assert forward_difference(lambda v: v * v, q) == pytest.approx(0.18, rel=1e-12)

    def test_exponential_factorization(self):
        # Delta_s^k(e^{a.}, t) = e^{at} (e^{as} - 1)^k
        a, t, s, k = -1.0, 0.5, 0.2, 3
        got = forward_difference(lambda v: math.exp(a * v),
                                 ForwardDifferenceQuery(t, s, k))
        want = math.exp(a * t) * (math.exp(a * s) - 1.0) ** k
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(-0.0036126, rel=1e-4)

    def test_curve_agrees_with_scalar(self):
        s = np.array([0.1, 0.2, 0.5])
        got = forward_difference_curve(lambda v: np.exp(-v), 0.3, s, 2)
        want = [forward_difference(lambda v: math.exp(-v),
                                   ForwardDifferenceQuery(0.3, float(si), 2))
                for si in s]
        assert got == pytest.approx(want, rel=1e-13)

    def test_cancellation_warning(self):
        with pytest.warns(CancellationWarning):
            forward_difference(math.cos, ForwardDifferenceQuery(0.3, 1e-9, 3))


class TestIterationIdentity:
    # hypothesis may draw polynomials annihilated by the k-th difference,
    # which legitimately trips the cancellation warning
    @pytest.mark.filterwarnings("ignore::gausslip.errors.CancellationWarning")
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=7),
           st.integers(min_value=2, max_value=5))
    def test_difference_iterates(self, coeffs, k):
        poly = np.polynomial.Polynomial(coeffs)
        t, s = 0.8, 0.37
        whole = forward_difference(poly, ForwardDifferenceQuery(t, s, k))
        inner = lambda tau: forward_difference(poly, ForwardDifferenceQuery(tau, s, k - 1))
        nested = forward_difference(inner, ForwardDifferenceQuery(t, s, 1))
        assert nested == pytest.approx(whole, rel=1e-12, abs=1e-12)


class TestNestedIntegralForm:
    def test_cubic_second_difference(self):
        q = ForwardDifferenceQuery(1.0, 0.5, 2)
        direct = forward_difference(lambda v: v**3, q)
        nested = nested_integral_form(lambda v: 6.0 * v, q)
        assert nested == pytest.approx(direct, abs=1e-10)

    def test_decaying_exponential(self):
        q = ForwardDifferenceQuery(0.4, 0.3, 2)
        direct = forward_difference(lambda v: math.exp(-v), q)
        nested = nested_integral_form(lambda v: np.exp(-v), q)
        assert nested == pytest.approx(direct, abs=1e-8)

    def test_first_order_is_fundamental_theorem(self):
        q = ForwardDifferenceQuery(0.2, 0.9, 1)
        nested = nested_integral_form(lambda v: np.cos(v), q)
        assert nested == pytest.approx(math.sin(1.1) - math.sin(0.2), rel=1e-12)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            nested_integral_form(lambda v: v, ForwardDifferenceQuery(0.0, 0.1, 5))


class TestDerivativeIdentities:
    def test_s_derivative_lowers_order(self):
        # d/ds Delta_s^k(f, t) = k Delta_s^{k-1}(f', t+s)
        f, df = np.cos, lambda v: -np.sin(v)
        t, s, k, h = 0.5, 0.4, 3, 1e-5
        up = forward_difference(f, ForwardDifferenceQuery(t, s + h, k))
        dn = forward_difference(f, ForwardDifferenceQuery(t, s - h, k))
        lhs = (up - dn) / (2 * h)
        rhs = k * forward_difference(df, ForwardDifferenceQuery(t + s, s, k - 1))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_t_derivative_hits_the_function(self):
        # d^j/dt^j Delta_s^k(f, t) = Delta_s^k(f^{(j)}, t), exact on polynomials
        poly = np.polynomial.Polynomial([0.3, -1.0, 0.0, 2.0, 0.5])
        t, s, k = 0.9, 0.25, 2
        rhs = forward_difference(poly.deriv(1), ForwardDifferenceQuery(t, s, k))
        # the k-th difference of a polynomial is again a polynomial in t,
        # values of its derivative recovered by exact degree-4 interpolation
        h = 0.2
        taus = [t + i * h for i in range(-2, 3)]
        vals = [forward_difference(poly, ForwardDifferenceQuery(tau, s, k))
                for tau in taus]
        deriv_coeffs = np.polynomial.polynomial.polyfit(taus, vals, 4)
        lhs = np.polynomial.Polynomial(deriv_coeffs).deriv(1)(t)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSemigroupCrossCheck:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_of_difference_operator(self, k):
        # (P_t - I)^k f(x) computed spectrally equals the k-th forward
        # difference of tau -> P_tau f(x) at base 0
        e = project(lambda p: np.cos(p[:, 0]), 1, 40)
        x, t = 0.7, 0.3
        from gausslip.hermite import scale_by_level
        direct = eval_expansion(
            scale_by_level(e, lambda m: np.expm1(-np.sqrt(m) * t) ** k), x)
        u = lambda tau: eval_expansion(
            ph_apply(e, SemigroupQuery(float(tau), "spectral")), x)
        delta = forward_difference(u, ForwardDifferenceQuery(0.0, t, k))
        assert delta == pytest.approx(direct, rel=1e-8)


class TestBoundProbe:
    def test_square_root_envelope(self):
        rows = difference_bound_probe(lambda v: v ** 0.5, 1, 0.5,
                                      (0.5, 1.0, 2.0),
                                      (lambda t: 0.1 * t, lambda t: 0.5 * t))
        assert max(r.ratio for r in rows) <= 0.5 + 1e-12

    def test_exponential_envelope(self):
        rows = difference_bound_probe(lambda v: math.exp(-v), 2, 0.0,
                                      (0.5, 1.0, 2.0), (0.1, 0.3))
        assert max(r.ratio for r in rows) <= 1.0

    @pytest.mark.filterwarnings("ignore::gausslip.errors.CancellationWarning")
    def test_low_degree_polynomial_annihilated(self):
        # the third difference annihilates the quadratic, so the alternating
        # sum is pure cancellation and legitimately warns
        poly = np.polynomial.Polynomial([1.0, -2.0, 0.7])
        rows = difference_bound_probe(poly, 3, 0.5, (0.5, 1.5), (0.2,))
        assert max(abs(r.difference) for r in rows) <= 1e-12
        assert all(r.ratio <= 1e-10 for r in rows)

    def test_envelope_exponent_validation(self):
        with pytest.raises(ValueError):
            difference_bound_probe(lambda v: v, 1, 1.5, (1.0,), (0.1,))
