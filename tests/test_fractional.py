import math
import warnings

import numpy as np
import pytest

from gausslip import fractional
from gausslip.fractional import (
    FractionalSpec,
    apply_fractional,
    c_beta_closed_form,
    c_beta_constant,
    eigenvalue_oracle,
    smallest_integer_above,
)
from gausslip.hermite import (
    HermiteExpansion,
    eval_expansion,
    hermite_eval,
    project,
    remove_mean,
)
from gausslip.quadrature import integrate_halfline

SQRT_PI = math.sqrt(math.pi)


class TestSpec:
    def test_difference_order_is_derived(self):
        assert FractionalSpec("riesz_derivative", 0.5).k == 1
        assert FractionalSpec("riesz_derivative", 1.0).k == 2
        assert FractionalSpec("riesz_derivative", 1.5).k == 2
        assert smallest_integer_above(2.0) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            FractionalSpec("laplacian", 0.5)
        with pytest.raises(ValueError):
            FractionalSpec("riesz_derivative", 0.5, representation="modal")
        with pytest.raises(ValueError):
            FractionalSpec("riesz_derivative", -0.5)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_order(self, beta):
        # a nan order made apply_fractional return nan coefficients
        with pytest.raises(ValueError, match="finite"):
            FractionalSpec("bessel_potential", beta)


class TestCBetaConstant:
    def test_half_matches_reflection_value(self):
        got = c_beta_constant(0.5, 1)
        assert got == pytest.approx(-2.0 * SQRT_PI, rel=1e-9)
        assert got == pytest.approx(c_beta_closed_form(0.5, 1), rel=1e-9)

    def test_three_halves_with_second_difference(self):
        # expand (e^{-u}-1)^2 = (e^{-2u}-1) - 2(e^{-u}-1), each continuing to
        # a^beta Gamma(-beta)
        got = c_beta_constant(1.5, 2)
        want = (2.0 ** 1.5 - 2.0) * math.gamma(-1.5)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(c_beta_closed_form(1.5, 2), rel=1e-9)

    def test_five_halves_with_third_difference(self):
        got = c_beta_constant(2.5, 3)
        assert got == pytest.approx(c_beta_closed_form(2.5, 3), rel=1e-9)

    def test_sign_alternates_with_order(self):
        for beta, k in ((0.5, 1), (1.5, 2), (2.5, 3), (0.9, 2)):
            assert (-1.0) ** k * c_beta_constant(beta, k) > 0.0

    def test_integer_order_quadrature_path(self):
        # beta = 1, k = 2: the Gamma continuation degenerates to the limit
        # lim Gamma(-b)(2^b - 2) = 2 log 2
        got = c_beta_constant(1.0, 2)
        assert got == pytest.approx(2.0 * math.log(2.0), rel=1e-9)
        with pytest.raises(ValueError):
            c_beta_closed_form(1.0, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            c_beta_constant(1.5, 1)
        with pytest.raises(ValueError):
            c_beta_constant(0.0, 1)


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 1.5, 2.5])
def test_difference_integrals_match_mpmath(beta):
    """∫ s^{-beta-1} (e^{-a s} - 1)^k ds, a in {1, 2, 4}: c^k_beta at a = 1,
    and over c^k_beta the integral Riesz derivative on level n = a^2.

    The half-line rule reaches s ~ e^{-522}, where s^{-beta-1} alone
    overflows; the integrands are formed in log space.  At beta = 0.1 the
    s^{-1.1} tail decays to 1e-2 tol only at the cap |tau| = 6.5.
    """
    mpmath = pytest.importorskip("mpmath")
    k = smallest_integer_above(beta)
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)

        def integral(a):
            # past s = 1, (e^{-as} - 1)^k - (-1)^k decays exponentially and
            # the (-1)^k s^{-beta-1} tail is (-1)^k / beta
            head = mpmath.quad(lambda s: mpmath.expm1(-a * s) ** k * s ** (-b - 1), [0, 1])
            tail = mpmath.quad(lambda s: (mpmath.expm1(-a * s) ** k - (-1) ** k)
                               * s ** (-b - 1), [1, mpmath.inf])
            return head + tail + (-1) ** k / b

        c = integral(1)
        assert c_beta_constant(beta, k) == pytest.approx(float(c), rel=1e-10)
        for a in (1, 2, 4):
            got = fractional._integral_eigenvalue("riesz_derivative", beta, k, (a * a,),
                                                  FractionalSpec.tol)[0]
            assert got == pytest.approx(float(integral(a) / c), rel=1e-10)


@pytest.mark.parametrize("kind", ["bessel_potential", "bessel_derivative"])
@pytest.mark.parametrize("beta", [0.5, 1.5, 2.5])
def test_bessel_integral_eigenvalues_match_mpmath(kind, beta):
    """The integral Bessel pair on levels n = 1, 4, 9, rate a = 1 + sqrt(n):
    ∫ s^{beta-1} e^{-a s} ds / Gamma(beta) for the potential and
    ∫ s^{-beta-1} (e^{-a s} - 1)^k ds / c^k_beta for the derivative, by
    30-digit quadrature of these defining integrals, not their closed forms
    (1 + sqrt(n))^{-+beta}."""
    mpmath = pytest.importorskip("mpmath")
    levels = (1, 4, 9)
    spec = FractionalSpec(kind, beta, "integral")
    k = spec.k
    got = apply_fractional(HermiteExpansion(1, 9, {(n,): 1.0 for n in levels}), spec)
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)

        def difference(a):
            # past s = 1, (e^{-as} - 1)^k - (-1)^k decays exponentially and
            # the (-1)^k s^{-beta-1} tail is (-1)^k / beta
            head = mpmath.quad(lambda s: mpmath.expm1(-a * s) ** k * s ** (-b - 1), [0, 1])
            tail = mpmath.quad(lambda s: (mpmath.expm1(-a * s) ** k - (-1) ** k)
                               * s ** (-b - 1), [1, mpmath.inf])
            return head + tail + (-1) ** k / b

        for n in levels:
            a = 1 + mpmath.sqrt(n)
            if kind == "bessel_potential":
                want = mpmath.quad(lambda s: s ** (b - 1) * mpmath.exp(-a * s),
                                   [0, 1, mpmath.inf]) / mpmath.gamma(b)
            else:
                want = difference(a) / difference(1)
            assert abs(got.coefficient((n,)) - float(want)) <= FractionalSpec.tol


class TestEigenvalueOracle:
    def test_reference_values(self):
        assert eigenvalue_oracle("bessel_potential", 1.0, 1, "spectral") == \
            pytest.approx(0.7071067811865476)
        assert eigenvalue_oracle("bessel_potential", 1.0, 1, "integral") == \
            pytest.approx(0.5)
        assert eigenvalue_oracle("riesz_derivative", 0.5, 0, "spectral") == 0.0
        assert eigenvalue_oracle("riesz_derivative", 0.5, 0, "integral") == 0.0
        assert eigenvalue_oracle("riesz_potential", 2.0, 4, "spectral") == \
            pytest.approx(0.25)

    def test_riesz_potential_undefined_at_zero_in_integral_form(self):
        with pytest.raises(ValueError):
            eigenvalue_oracle("riesz_potential", 0.5, 0, "integral")
        assert eigenvalue_oracle("riesz_potential", 0.5, 0, "spectral") == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            eigenvalue_oracle("gradient", 0.5, 1, "spectral")


def _pure(n, cap=None):
    return HermiteExpansion(1, cap or max(n, 1), {(n,): 1.0})


class TestBesselPotential:
    def test_spectral_eigenvalue(self):
        out = apply_fractional(_pure(1), FractionalSpec("bessel_potential", 1.0))
        assert out.coefficient((1,)) == pytest.approx(2.0 ** -0.5, rel=1e-14)

    def test_integral_eigenvalue(self):
        spec = FractionalSpec("bessel_potential", 1.0, representation="integral")
        out = apply_fractional(_pure(1), spec)
        assert out.coefficient((1,)) == pytest.approx(0.5, rel=1e-6)

    def test_constant_is_fixed(self):
        e = HermiteExpansion(1, 1, {(0,): 2.0})
        for rep in ("spectral", "integral"):
            out = apply_fractional(e, FractionalSpec("bessel_potential", 0.7,
                                                     representation=rep))
            assert out.coefficient((0,)) == pytest.approx(2.0, rel=1e-8)


class TestRieszPotential:
    def test_spectral_eigenvalue(self):
        out = apply_fractional(_pure(4), FractionalSpec("riesz_potential", 2.0))
        assert out.coefficient((4,)) == pytest.approx(0.25, rel=1e-14)

    def test_kills_constants(self):
        e = HermiteExpansion(1, 1, {(0,): 3.0})
        out = apply_fractional(e, FractionalSpec("riesz_potential", 1.0))
        assert out.coefficient((0,)) == 0.0

    def test_integral_matches_spectral_on_mean_zero_cosine(self):
        e = remove_mean(project(lambda p: np.cos(p[:, 0]), 1, 40))
        spec_i = FractionalSpec("riesz_potential", 0.5, representation="integral")
        spec_s = FractionalSpec("riesz_potential", 0.5, representation="spectral")
        got = eval_expansion(apply_fractional(e, spec_i), 0.4)
        want = eval_expansion(apply_fractional(e, spec_s), 0.4)
        assert got == pytest.approx(want, abs=1e-6)

    def test_integral_requires_mean_zero(self):
        e = project(lambda p: np.cos(p[:, 0]), 1, 10)
        with pytest.raises(ValueError):
            apply_fractional(e, FractionalSpec("riesz_potential", 0.5,
                                               representation="integral"))


class TestRieszDerivative:
    def test_spectral_eigenvalue(self):
        out = apply_fractional(_pure(2), FractionalSpec("riesz_derivative", 0.5))
        assert out.coefficient((2,)) == pytest.approx(2.0 ** 0.25, rel=1e-14)

    def test_integral_second_difference_path(self):
        spec = FractionalSpec("riesz_derivative", 1.5, representation="integral")
        assert spec.k == 2
        out = apply_fractional(_pure(1), spec)
        assert out.coefficient((1,)) == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_forward_difference_path_reproduces_eigenvalues(self, n):
        spec = FractionalSpec("riesz_derivative", 1.5, representation="integral")
        out = apply_fractional(_pure(n), spec)
        assert out.coefficient((n,)) == pytest.approx(n ** 0.75, rel=1e-5)

    def test_annihilates_constants(self):
        e = HermiteExpansion(1, 1, {(0,): 5.0})
        for rep in ("spectral", "integral"):
            out = apply_fractional(e, FractionalSpec("riesz_derivative", 0.5,
                                                     representation=rep))
            assert out.coefficient((0,)) == 0.0


class TestBesselDerivative:
    def test_spectral_eigenvalue(self):
        out = apply_fractional(_pure(1), FractionalSpec("bessel_derivative", 1.0))
        assert out.coefficient((1,)) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_integral_eigenvalue(self):
        spec = FractionalSpec("bessel_derivative", 1.0, representation="integral")
        out = apply_fractional(_pure(1), spec)
        assert out.coefficient((1,)) == pytest.approx(2.0, rel=1e-5)

    def test_constant_maps_to_itself_on_first_order_path(self):
        e = HermiteExpansion(1, 1, {(0,): 1.5})
        spec = FractionalSpec("bessel_derivative", 0.5, representation="integral")
        out = apply_fractional(e, spec)
        assert out.coefficient((0,)) == pytest.approx(1.5, rel=1e-6)


class TestOperatorAlgebra:
    def test_inverse_pair_gives_mean_removal(self):
        rng = np.random.default_rng(0)
        e = HermiteExpansion(1, 12, {(n,): float(rng.uniform(-1, 1)) for n in range(13)})
        for beta in (0.5, 1.0, 2.0):
            pot = apply_fractional(e, FractionalSpec("riesz_potential", beta))
            back = apply_fractional(pot, FractionalSpec("riesz_derivative", beta))
            want = remove_mean(e)
            for nu in want.coefficients:
                assert back.coefficient(nu) == pytest.approx(want.coefficient(nu),
                                                             abs=1e-13)

    def test_bessel_potentials_compose(self):
        rng = np.random.default_rng(1)
        e = HermiteExpansion(1, 12, {(n,): float(rng.uniform(-1, 1)) for n in range(13)})
        one = apply_fractional(
            apply_fractional(e, FractionalSpec("bessel_potential", 0.7)),
            FractionalSpec("bessel_potential", 0.8))
        two = apply_fractional(e, FractionalSpec("bessel_potential", 1.5))
        for nu in two.coefficients:
            assert one.coefficient(nu) == pytest.approx(two.coefficient(nu), abs=1e-14)

    @pytest.mark.parametrize("kind", ["riesz_potential", "riesz_derivative"])
    def test_riesz_representations_agree(self, kind):
        from gausslip.fractional import _integral_eigenvalue
        for n in range(1, 10):
            spec = FractionalSpec(kind, 0.5, representation="integral")
            got = _integral_eigenvalue(kind, 0.5, spec.k, (n,), 1e-9)[0]
            want = eigenvalue_oracle(kind, 0.5, n, "spectral")
            assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("kind", ["bessel_potential", "bessel_derivative"])
    def test_bessel_representations_differ(self, kind):
        from gausslip.fractional import _integral_eigenvalue
        spec = FractionalSpec(kind, 1.0, representation="integral")
        got = _integral_eigenvalue(kind, 1.0, spec.k, (1,), 1e-9)[0]
        integral_oracle = eigenvalue_oracle(kind, 1.0, 1, "integral")
        spectral_oracle = eigenvalue_oracle(kind, 1.0, 1, "spectral")
        assert got == pytest.approx(integral_oracle, rel=1e-5)
        assert abs(got - spectral_oracle) > 0.1


class TestInput:
    def test_callable_input_rejected(self):
        with pytest.raises(ValueError, match="requires a HermiteExpansion input"):
            apply_fractional(lambda p: np.cos(p[:, 0]), FractionalSpec("bessel_potential", 1.0))


# just below an integer the integrand behaves like a^k s^{k-beta-1} as
# s -> 0, which is still not negligible where the half-line rule stops
NEAR_INTEGER = [0.95, 0.99, 1.95, 1.99, 2.95]


@pytest.mark.parametrize("beta", NEAR_INTEGER)
def test_c_beta_just_below_an_integer(beta):
    k = smallest_integer_above(beta)
    assert c_beta_constant(beta, k) == pytest.approx(c_beta_closed_form(beta, k), rel=1e-9)


@pytest.mark.parametrize("kind", ["riesz_derivative", "bessel_derivative"])
@pytest.mark.parametrize("beta", NEAR_INTEGER)
def test_integral_derivatives_just_below_an_integer(kind, beta):
    levels = (0, 1, 2, 5, 17, 40)
    got = fractional._integral_eigenvalue(kind, beta, smallest_integer_above(beta), levels,
                                          FractionalSpec.tol)
    want = [eigenvalue_oracle(kind, beta, n, "integral") for n in levels]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def _every_level(n_max=40):
    return HermiteExpansion(1, n_max, {(n,): 1.0 for n in range(n_max + 1)})


@pytest.mark.parametrize("representation", ["spectral", "integral"])
@pytest.mark.parametrize("kind", fractional.KINDS)
@pytest.mark.parametrize("beta", [0.4, 0.8, 1.4, 2.5])
def test_every_level_matches_the_oracle(kind, representation, beta):
    """All 41 levels at once; the Riesz kinds give exactly 0 on level 0
    without evaluating 0^{-beta/2} or log 0, which would warn."""
    e = _every_level()
    if kind == "riesz_potential" and representation == "integral":
        e = remove_mean(e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_fractional(e, FractionalSpec(kind, beta, representation))
    for n in range(41):
        got = out.coefficient((n,))
        if n == 0 and kind.startswith("riesz"):
            assert got == 0.0
        else:
            assert got == pytest.approx(eigenvalue_oracle(kind, beta, n, representation),
                                        rel=1e-7)


class TestOneIntegralPerOperator:
    @pytest.mark.parametrize("kind", fractional.KINDS)
    def test_one_halfline_call_per_operator(self, kind, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return integrate_halfline(*args, **kwargs)

        monkeypatch.setattr(fractional, "integrate_halfline", counted)
        fractional._integral_eigenvalue.cache_clear()
        fractional.c_beta_constant.cache_clear()
        e = _every_level()
        if kind == "riesz_potential":
            e = remove_mean(e)
        apply_fractional(e, FractionalSpec(kind, 1.4, representation="integral"))
        # the derivatives also compute c^k_beta, once
        assert len(calls) == (2 if kind.endswith("derivative") else 1)

    @pytest.mark.parametrize("kind", fractional.KINDS)
    @pytest.mark.parametrize("beta", [0.4, 1.4, 2.5])
    def test_vector_matches_single_levels(self, kind, beta):
        k = smallest_integer_above(beta)
        levels = tuple(range(1, 41))
        vector = fractional._integral_eigenvalue(kind, beta, k, levels, 1e-9)
        single = [fractional._integral_eigenvalue(kind, beta, k, (n,), 1e-9)[0]
                  for n in levels]
        assert not vector.flags.writeable
        assert np.max(np.abs(vector - single)) <= 1e-9

    def test_riesz_level_zero(self):
        got = fractional._integral_eigenvalue("riesz_derivative", 0.5, 1, (0, 4), 1e-9)
        assert got[0] == 0.0 and got[1] == pytest.approx(2.0 ** 0.5, rel=1e-8)
        with pytest.raises(ValueError, match="mean"):
            fractional._integral_eigenvalue("riesz_potential", 0.5, 1, (0, 4), 1e-9)

    def test_riesz_potential_zeroes_a_negligible_mean(self):
        e = HermiteExpansion(1, 4, {(0,): 1e-13, (4,): 1.0})
        out = apply_fractional(e, FractionalSpec("riesz_potential", 1.0,
                                                 representation="integral"))
        assert out.coefficient((0,)) == 0.0
        assert out.coefficient((4,)) == pytest.approx(0.5, rel=1e-8)
