import math

import numpy as np
import pytest

from gausslip.catalog import catalog_function
from gausslip.fractional import FractionalSpec
from gausslip.hermite import HermiteExpansion, eval_expansion, project, scale_by_level
from gausslip.lipschitz import (
    COMPARABILITY_WINDOW,
    STABILITY_DRIFT,
    derivative_equivalence_probe,
    inclusion_probe,
    modulus_probe,
    operator_boundedness_probe,
    seminorm_estimate,
    smallest_integer_above,
    sup_norm_estimate,
)
from gausslip.semigroup import SemigroupQuery, ph_apply

T_GRID = tuple(np.geomspace(0.0125, 4.0, 16))


def _cos():
    return catalog_function("cos:1")[1]


class TestSupNorm:
    def test_constant(self):
        est = sup_norm_estimate(lambda x: np.full(x.shape[0], -2.5), 3.0)
        assert est.value == 2.5

    def test_cosine_attains_one(self):
        est = sup_norm_estimate(_cos(), x_radius=3.5)
        assert est.value == pytest.approx(1.0, abs=1e-6)
        assert not est.boundary

    def test_unbounded_polynomial_flagged_at_boundary(self):
        f = catalog_function("hermite:1")[1]
        est = sup_norm_estimate(f, x_radius=3.0)
        assert est.value == pytest.approx(math.sqrt(2.0) * 3.0, rel=1e-10)
        assert est.boundary

    def test_probes_reject_d2_input_explicitly(self):
        e = HermiteExpansion(2, 2, {(1, 1): 1.0})
        for probe in (lambda: sup_norm_estimate(e), lambda: seminorm_estimate(e, 0.5),
                      lambda: modulus_probe(e, 0.5), lambda: inclusion_probe(e, 0.4, 0.8)):
            with pytest.raises(ValueError, match="take d=1 input, got a d=2 expansion"):
                probe()

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            sup_norm_estimate(_cos(), 3.0, grid_points=2)


class TestSeminormEstimate:
    def test_derivative_order_derivation(self):
        assert smallest_integer_above(0.5) == 1
        assert smallest_integer_above(1.0) == 2
        assert smallest_integer_above(1.7) == 2

    def test_constant_has_zero_seminorm(self):
        est = seminorm_estimate(catalog_function("const:1")[1], 0.5, T_GRID)
        assert est.a_alpha <= 1e-10
        assert est.sup_norm_f == pytest.approx(1.0, rel=1e-12)

    def test_cosine_stable_under_grid_refinement(self):
        base = seminorm_estimate(_cos(), 0.5, T_GRID).a_alpha
        assert base > 0.0
        for factor in (2, 4):
            fine = tuple(np.geomspace(T_GRID[0], T_GRID[-1], factor * len(T_GRID)))
            refined = seminorm_estimate(_cos(), 0.5, fine).a_alpha
            assert abs(refined - base) / base <= 0.10

    def test_weighting_relation_between_orders(self):
        # identical sup rows weighted by t^{n-alpha}: row-by-row algebra
        lo = seminorm_estimate(_cos(), 0.5, T_GRID)
        hi = seminorm_estimate(_cos(), 0.9, T_GRID, n=1)
        t_min = min(T_GRID)
        assert hi.a_alpha >= lo.a_alpha * t_min ** 0.4 - 1e-12

    def test_rows_sorted_and_proxy_flagged(self):
        est = seminorm_estimate(_cos(), 0.5, (1.0, 0.1, 2.0))
        assert [r.t for r in est.rows] == [0.1, 1.0, 2.0]
        assert est.supnorm_is_grid_proxy

    def test_homogeneity(self):
        f = _cos()
        one = seminorm_estimate(f, 0.5, T_GRID).a_alpha
        two = seminorm_estimate(lambda x: 2.0 * f(x), 0.5, T_GRID).a_alpha
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            seminorm_estimate(_cos(), -0.5)
        with pytest.raises(ValueError):
            seminorm_estimate(_cos(), 0.5, n=0)

    def test_rough_expansion_flagged_non_convergent(self):
        from gausslip.hermite import HermiteExpansion
        # slowly decaying coefficients: the weighted rows still rise at the
        # smallest grid time, so membership is not supported at this resolution
        e = HermiteExpansion(1, 40, {(n,): 1.0 / (n + 1.0) for n in range(41)})
        est = seminorm_estimate(e, 0.5, t_grid=(0.3, 0.6, 1.2, 2.4))
        assert "non_convergent" in est.flags


class TestBatchedRows:
    """A probe evaluates all its t-rows together; each row must match the
    per-t route, one sup_norm_estimate per expansion."""

    @pytest.fixture(params=["cos", "rough"])
    def expansion(self, request):
        if request.param == "cos":
            return project(_cos(), 1, 40)
        rng = np.random.default_rng(3)
        return HermiteExpansion(1, 40, {(n,): float(rng.uniform(-1, 1)) * (1.0 + n) ** -0.6
                                        for n in range(41)})

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_seminorm_rows(self, expansion, alpha):
        est = seminorm_estimate(expansion, alpha, T_GRID)
        for row in est.rows:
            deriv = ph_apply(expansion, SemigroupQuery(row.t, "spectral", est.n))
            assert row.sup_norm == pytest.approx(sup_norm_estimate(deriv).value, rel=1e-12)

    def test_modulus_rows(self, expansion):
        rep = modulus_probe(expansion, 1.5, t_grid=T_GRID)
        for row in rep.rows:
            diff = scale_by_level(expansion, lambda m: np.expm1(-np.sqrt(m) * row.t) ** 2)
            assert row.norm == pytest.approx(sup_norm_estimate(diff).value, rel=1e-12)


class TestModulusProbe:
    def test_constant_rows_vanish(self):
        rep = modulus_probe(catalog_function("const:1")[1], 0.5, t_grid=T_GRID)
        assert all(r.norm <= 1e-10 for r in rep.rows)
        assert rep.ceiling_ok

    def test_cosine_ratio_bounded_toward_zero(self):
        rep = modulus_probe(_cos(), 0.5, t_grid=T_GRID)
        small_t = [r.ratio for r in rep.rows[:5]]
        assert max(small_t) <= rep.max_ratio + 1e-12
        assert all(math.isfinite(r.ratio) for r in rep.rows)

    def test_ceiling_two_to_the_k(self):
        rep = modulus_probe(_cos(), 1.5, n=2, t_grid=T_GRID)
        sup_f = sup_norm_estimate(_cos(), 3.0).value
        assert all(r.norm <= 4.0 * sup_f + 1e-8 for r in rep.rows)
        assert rep.ceiling_ok

    def test_integer_alpha_rejected(self):
        with pytest.raises(ValueError):
            modulus_probe(_cos(), 1.0)


class TestEquivalenceProbe:
    def test_cosine_orders_comparable(self):
        rep = derivative_equivalence_probe(_cos(), 0.5, 1, 2, T_GRID)
        lo, hi = COMPARABILITY_WINDOW
        assert lo <= rep.ratio <= hi
        assert rep.comparable and not rep.exact_zero

    def test_constant_reports_exact_zero(self):
        rep = derivative_equivalence_probe(catalog_function("const:3")[1],
                                           0.5, 1, 2, T_GRID)
        assert rep.exact_zero and rep.comparable

    def test_scaling_leaves_ratio_invariant(self):
        f = _cos()
        one = derivative_equivalence_probe(f, 0.5, 1, 2, T_GRID)
        two = derivative_equivalence_probe(lambda x: 2.0 * f(x), 0.5, 1, 2, T_GRID)
        assert two.a_k == pytest.approx(2.0 * one.a_k, rel=1e-12)
        assert two.ratio == pytest.approx(one.ratio, rel=1e-12)

    def test_order_hypothesis_validation(self):
        with pytest.raises(ValueError):
            derivative_equivalence_probe(_cos(), 1.5, 1, 2, T_GRID)


class TestInclusionProbe:
    @pytest.mark.parametrize("name", ["const:1", "cos:1", "gauss-bump", "smooth-step"])
    def test_higher_order_space_is_contained(self, name):
        rep = inclusion_probe(catalog_function(name)[1], 0.4, 0.8, T_GRID)
        assert rep.satisfied
        assert rep.a_alpha1 <= max(rep.a_alpha2, rep.c_remark) * (1 + 1e-12)

    def test_degenerate_orders_coincide(self):
        rep = inclusion_probe(_cos(), 0.7, 0.7, T_GRID)
        assert rep.a_alpha1 == pytest.approx(rep.a_alpha2, rel=1e-14)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            inclusion_probe(_cos(), 0.8, 0.4, T_GRID)


class TestBoundednessProbe:
    def test_bessel_potential_smooths(self):
        spec = FractionalSpec("bessel_potential", 0.5)
        rep = operator_boundedness_probe(spec, [("cos:1", _cos())], 0.4, T_GRID)
        assert rep.target_alpha == pytest.approx(0.9)
        assert rep.stable
        row = rep.rows[0]
        assert math.isfinite(row.ratio) and row.drift <= STABILITY_DRIFT

    def test_riesz_derivative_roughens(self):
        spec = FractionalSpec("riesz_derivative", 0.3)
        rep = operator_boundedness_probe(spec, [("cos:1", _cos())], 0.9, T_GRID)
        assert rep.target_alpha == pytest.approx(0.6)
        assert rep.stable

    def test_constant_images_are_flat(self):
        spec = FractionalSpec("riesz_derivative", 0.3)
        rep = operator_boundedness_probe(
            spec, [("const:1", catalog_function("const:1")[1])], 0.9, T_GRID)
        assert rep.rows[0].target_seminorm <= 1e-10

    def test_hypothesis_violation(self):
        spec = FractionalSpec("riesz_derivative", 0.9)
        with pytest.raises(ValueError):
            operator_boundedness_probe(spec, [("cos:1", _cos())], 0.5, T_GRID)


class TestSpectralDerivativeConsistency:
    def test_first_derivative_matches_central_difference(self):
        e = project(_cos(), 1, 40)
        t, h, x = 0.5, 1e-4, 0.6
        d1 = eval_expansion(ph_apply(e, SemigroupQuery(t, "spectral", 1)), x)
        up = eval_expansion(ph_apply(e, SemigroupQuery(t + h, "spectral")), x)
        dn = eval_expansion(ph_apply(e, SemigroupQuery(t - h, "spectral")), x)
        assert d1 == pytest.approx((up - dn) / (2 * h), rel=1e-5)

    def test_decay_away_from_zero(self):
        # for t >= 1 the weighted rows decay: sup <= C / t with C empirical
        est = seminorm_estimate(_cos(), 0.5, T_GRID)
        far = [(r.t, r.sup_norm) for r in est.rows if r.t >= 1.0]
        c_emp = max(t * s for t, s in far)
        assert all(s <= c_emp / t + 1e-12 for t, s in far)
