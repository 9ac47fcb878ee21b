import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslip import hermite
from gausslip.hermite import (
    HermiteExpansion,
    eval_coefficients,
    eval_expansion,
    expansion_from_json,
    expansion_to_json,
    graded_indices,
    hermite_eval,
    hermite_values_1d,
    project,
    remove_mean,
    scale_by_level,
)
from gausslip.quadrature import default_rule, gauss_hermite_rule, integrate_gaussian, tensor_nodes

# physicists' polynomials H_0..H_5, used as an independent oracle
_PHYS = [
    lambda x: np.ones_like(x),
    lambda x: 2 * x,
    lambda x: 4 * x**2 - 2,
    lambda x: 8 * x**3 - 12 * x,
    lambda x: 16 * x**4 - 48 * x**2 + 12,
    lambda x: 32 * x**5 - 160 * x**3 + 120 * x,
]


def _normalized_oracle(n, x):
    return _PHYS[n](np.asarray(x, dtype=float)) / math.sqrt(2**n * math.factorial(n))


class TestHermiteEval:
    def test_constant(self):
        assert hermite_eval((0,), 1.7) == 1.0
        assert hermite_eval((0, 0), (0.3, -2.0)) == 1.0

    def test_odd_vanishes_at_origin(self):
        assert hermite_eval((1,), 0.0) == 0.0

    def test_degree_two_value(self):
        assert hermite_eval((2,), 1.0) == pytest.approx(2.0 / math.sqrt(8.0), rel=1e-14)

    @pytest.mark.parametrize("n", range(6))
    def test_recurrence_matches_explicit_polynomials(self, n):
        xs = np.linspace(-2.5, 2.5, 11)
        got = hermite_eval((n,), xs[:, None])
        assert got == pytest.approx(_normalized_oracle(n, xs), rel=1e-12, abs=1e-12)

    def test_normalized_recurrence_matches_mpmath_to_degree_256(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(-3.0, 3.0, 13)
        table = hermite_values_1d(256, xs)
        worst = 0.0
        with mpmath.workdps(30):
            for n in range(257):
                norm = mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n))
                for x, got in zip(xs.tolist(), table[n].tolist()):
                    want = mpmath.hermite(n, x) / norm
                    # |h_n(x)| stays below ~e^{x^2/2}: the error is measured on that scale
                    worst = max(worst, float(abs(got - want) / mpmath.exp(x * x / 2)))
        assert worst <= 1e-14

    def test_product_structure_in_two_dims(self):
        x = (0.4, -1.1)
        got = hermite_eval((2, 3), x)
        want = _normalized_oracle(2, 0.4) * _normalized_oracle(3, -1.1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            hermite_eval((-1,), 0.0)

    def test_orthonormality_under_default_rule(self):
        rule = gauss_hermite_rule(64)
        for d in (1, 2):
            indices = graded_indices(d, 6 if d == 1 else 4)
            for nu in indices:
                for mu in indices:
                    got = integrate_gaussian(
                        lambda p, nu=nu, mu=mu: hermite_eval(nu, p) * hermite_eval(mu, p),
                        d, rule)
                    want = 1.0 if nu == mu else 0.0
                    assert got == pytest.approx(want, abs=1e-8)


class TestProjection:
    def test_pure_hermite_projects_to_delta(self):
        e = project(lambda p: hermite_eval((2,), p), 1, 4)
        assert e.coefficient((2,)) == pytest.approx(1.0, rel=1e-12)
        for nu in graded_indices(1, 4):
            if nu != (2,):
                assert abs(e.coefficient(nu)) <= 1e-10

    def test_constant_function(self):
        e = project(lambda p: np.ones(p.shape[0]), 1, 3)
        assert e.coefficient((0,)) == pytest.approx(1.0, rel=1e-14)
        assert all(abs(e.coefficient((n,))) <= 1e-13 for n in (1, 2, 3))

    def test_cosine_coefficients_match_generating_function(self):
        # e^{iax} = e^{-a^2/4} sum H_n(x) (ia/2)^n / n! gives, for cos(ax),
        # fhat(n) = e^{-a^2/4} (-1)^{n/2} (a/2)^n sqrt(2^n n!) / n!  (n even)
        a = 1.0
        e = project(lambda p: np.cos(a * p[:, 0]), 1, 12)
        for n in range(13):
            if n % 2 == 1:
                assert abs(e.coefficient((n,))) <= 1e-12
            else:
                want = (math.exp(-a * a / 4.0) * (-1.0) ** (n // 2) * (a / 2.0) ** n
                        * math.sqrt(2**n * math.factorial(n)) / math.factorial(n))
                assert e.coefficient((n,)) == pytest.approx(want, abs=1e-8)

    def test_cos_level_two_reference_value(self):
        e = project(lambda p: np.cos(p[:, 0]), 1, 4)
        assert abs(e.coefficient((2,)) + math.exp(-0.25) / (2 * math.sqrt(2))) <= 1e-8

    def test_parseval_at_truncation(self):
        e = project(lambda p: np.cos(p[:, 0]), 1, 20)
        total = sum(c * c for c in e.coefficients.values())
        l2 = 0.5 * (1.0 + math.exp(-1.0))  # ∫ cos^2 dgamma
        assert total <= l2 + 1e-10
        assert total == pytest.approx(l2, rel=1e-8)

    def test_wrong_result_shape_names_the_shape(self):
        # np.cos(p) keeps the coordinate axis: (64, 1) instead of (64,)
        with pytest.raises(ValueError, match=r"\(64, 1\)"):
            project(lambda p: np.cos(p), 1, 4)

    @pytest.mark.parametrize("d, n_max, m", [(2, 6, 20), (3, 4, 12)])
    def test_multi_dim_matches_per_index_reference_sum(self, d, n_max, m):
        # the loop the axis-by-axis contraction replaces, one sum per multi-index
        def f(p):
            return np.exp(0.3 * p[:, 0] - 0.2 * p[:, -1]) * np.cos(p[:, 1])

        rule = gauss_hermite_rule(m)
        pts, w = tensor_nodes(rule, d)
        e = project(f, d, n_max, rule)
        for nu in graded_indices(d, n_max):
            want = float(np.sum(w * f(pts) * hermite_eval(nu, pts))) / math.pi ** (d / 2.0)
            assert e.coefficient(nu) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_even_function_has_no_odd_coefficients(self):
        e = project(lambda p: np.exp(-p[:, 0] ** 2), 1, 9)
        for n in (1, 3, 5, 7, 9):
            assert abs(e.coefficient((n,))) <= 1e-12


class TestRuleTable:
    """``project`` builds the Hermite table of a rule once per (n_max, nodes)."""

    @staticmethod
    def _coefficients(n_max, rule):
        return project(lambda p: np.cos(p[:, 0]) + p[:, 0] ** 3, 1, n_max, rule).vector.tolist()

    def test_interleaved_rules_give_cold_results(self):
        keys = ((40, default_rule()), (40, gauss_hermite_rule(32)), (12, gauss_hermite_rule(32)))
        cold = []
        for key in keys:
            hermite._rule_table.cache_clear()
            cold.append(self._coefficients(*key))
        for _ in range(2):
            for key, want in zip(keys, cold):
                assert self._coefficients(*key) == want

    def test_cached_table_is_read_only(self):
        table = hermite._rule_table(40, default_rule().nodes.tobytes())
        assert table.shape == (41, 64)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2.0


class TestEvalExpansion:
    def test_round_trip_against_direct_evaluation(self):
        e = project(lambda p: hermite_eval((3,), p), 1, 6)
        assert eval_expansion(e, 0.7) == pytest.approx(hermite_eval((3,), 0.7), abs=1e-10)

    def test_zero_expansion(self):
        e = HermiteExpansion(1, 3, {})
        assert eval_expansion(e, 1.23) == 0.0

    def test_constant_expansion(self):
        e = HermiteExpansion(1, 2, {(0,): 2.0})
        for x in (-1.0, 0.0, 3.7):
            assert eval_expansion(e, x) == 2.0

    def test_batch_shape(self):
        e = project(lambda p: np.cos(p[:, 0]), 1, 10)
        xs = np.linspace(-1, 1, 7)[:, None]
        assert eval_expansion(e, xs).shape == (7,)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9))
    def test_project_inverts_eval(self, coeffs):
        n_max = len(coeffs) - 1
        e = HermiteExpansion(1, n_max, {(n,): c for n, c in enumerate(coeffs)})
        back = project(lambda p: eval_expansion(e, p), 1, n_max)
        for n in range(n_max + 1):
            assert back.coefficient((n,)) == pytest.approx(coeffs[n], abs=1e-8)

    @pytest.mark.parametrize("d, n_max", [(2, 5), (3, 4)])
    def test_multi_dim_matches_per_index_reference_sum(self, d, n_max):
        rng = np.random.default_rng(d)
        coeffs = {nu: float(rng.uniform(-1, 1)) for nu in graded_indices(d, n_max)}
        e = HermiteExpansion(d, n_max, coeffs)
        xs = rng.uniform(-2.5, 2.5, (9, d))
        want = sum(c * hermite_eval(nu, xs) for nu, c in coeffs.items())
        assert eval_expansion(e, xs) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert eval_expansion(e, xs[0]) == pytest.approx(want[0], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d, n_max", [(1, 12), (2, 5)])
    def test_coefficient_rows_evaluate_at_shared_points(self, d, n_max):
        rng = np.random.default_rng(d)
        vectors = rng.uniform(-1, 1, (3, len(graded_indices(d, n_max))))
        pts = rng.uniform(-2.5, 2.5, (3, 4, d))
        got = eval_coefficients(vectors, d, n_max, pts)
        assert got.shape == (3, 3, 4)
        for r, v in enumerate(vectors):
            assert np.array_equal(got[r], eval_expansion(HermiteExpansion(d, n_max, v), pts))

    def test_two_dim_round_trip(self):
        rng = np.random.default_rng(0)
        coeffs = {nu: float(rng.uniform(-1, 1)) for nu in graded_indices(2, 5)}
        e = HermiteExpansion(2, 5, coeffs)
        back = project(lambda p: eval_expansion(e, p), 2, 5, gauss_hermite_rule(32))
        for nu, c in coeffs.items():
            assert back.coefficient(nu) == pytest.approx(c, abs=1e-8)


class TestChaosAndMean:
    def test_remove_mean(self):
        e = HermiteExpansion(1, 2, {(0,): 3.0, (2,): 0.5})
        out = remove_mean(e)
        assert out.coefficient((0,)) == 0.0
        assert out.coefficient((2,)) == 0.5
        assert remove_mean(out).coefficients == out.coefficients

    def test_multiplier_skips_levels_without_coefficients(self):
        e = remove_mean(HermiteExpansion(2, 4, {(0, 0): 3.0, (2, 0): 0.5, (1, 3): 2.0,
                                                (0, 2): -1.0, (1, 0): 4.0}))
        called = []

        def multiplier(n):
            called.append(n)
            return 1.0 / n  # undefined at the zeroed mean level

        out = scale_by_level(e, multiplier)
        # one call with the occupied levels, ascending, as an int array
        assert len(called) == 1
        assert called[0].dtype.kind == "i" and called[0].tolist() == [1, 2, 4]
        assert out.coefficients == {(1, 0): 4.0, (0, 2): -0.5, (2, 0): 0.25, (1, 3): 0.5}

    def test_multiplier_is_not_called_without_coefficients(self):
        def multiplier(n):
            raise AssertionError("called on an empty expansion")

        out = scale_by_level(HermiteExpansion(1, 3, {}), multiplier)
        assert out.coefficients == {}

    def test_mean_removal_fixes_nonconstant_hermite(self):
        e = project(lambda p: hermite_eval((3,), p), 1, 4)
        out = remove_mean(e)
        assert out.coefficient((3,)) == pytest.approx(e.coefficient((3,)), rel=1e-14)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        coeffs = {nu: float(rng.standard_normal()) for nu in graded_indices(2, 3)}
        e = HermiteExpansion(2, 3, coeffs)
        back = expansion_from_json(expansion_to_json(e))
        assert back.dimension == 2 and back.degree_cap == 3
        assert back.coefficients == e.coefficients

    def test_entries_in_graded_lex_order(self):
        e = HermiteExpansion(2, 2, {(2, 0): 1.0, (0, 0): 1.0, (1, 1): 1.0, (0, 1): 1.0})
        import json
        entries = [tuple(item["nu"]) for item in json.loads(expansion_to_json(e))["entries"]]
        assert entries == sorted(entries, key=lambda nu: (sum(nu), nu))

    def test_seventeen_significant_digits(self):
        e = HermiteExpansion(1, 0, {(0,): 1.0 / 3.0})
        assert "0.33333333333333331" in expansion_to_json(e)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            HermiteExpansion(1, 2, {(3,): 1.0})  # exceeds cap
        with pytest.raises(ValueError):
            HermiteExpansion(2, 2, {(1,): 1.0})  # wrong length
        with pytest.raises(ValueError):
            HermiteExpansion(0, 2, {})

    @pytest.mark.parametrize("bad, token", [(math.nan, "NaN"), (math.inf, "Infinity"),
                                            (-math.inf, "-Infinity")])
    def test_non_finite_coefficients_rejected(self, bad, token):
        # a nan coefficient once reached seminorm_estimate, which returned
        # a_alpha = nan under a 'boundary' flag alone
        with pytest.raises(ValueError, match=r"finite.*\(0,\)"):
            HermiteExpansion(1, 2, {(0,): bad, (1,): 1.0})
        with pytest.raises(ValueError, match=r"finite.*\(2,\)"):
            HermiteExpansion(1, 2, [1.0, 0.0, bad])
        text = '{"d": 1, "N": 2, "entries": [{"nu": [1], "c": 1}, {"nu": [2], "c": %s}]}'
        with pytest.raises(ValueError, match=r"finite.*\(2,\)"):
            expansion_from_json(text % token)

    def test_immutable(self):
        e = HermiteExpansion(1, 2, {(1,): 1.0})
        with pytest.raises(AttributeError):
            e.degree_cap = 3
        with pytest.raises(ValueError):
            e.vector[0] = 1.0

    def test_file_written_by_the_dict_layout_loads(self):
        # written when expansions were dicts, zero entries included
        text = ('{\n  "d": 2,\n  "N": 2,\n  "entries": [\n'
                '    {"nu": [0, 0], "c": 0.33333333333333331},\n'
                '    {"nu": [0, 1], "c": -0.5},\n'
                '    {"nu": [1, 0], "c": 0},\n'
                '    {"nu": [1, 1], "c": 2.4999999999999999e-17},\n'
                '    {"nu": [2, 0], "c": -1.0000000000000001e+300}\n  ]\n}\n')
        e = expansion_from_json(text)
        assert e.coefficients == {(0, 0): 1.0 / 3.0, (0, 1): -0.5, (1, 1): 2.5e-17,
                                  (2, 0): -1e300}
        assert e.coefficient((1, 0)) == 0.0 and e.coefficient((0, 2)) == 0.0
        # the same file, less its zero entry
        assert expansion_to_json(e) == text.replace('    {"nu": [1, 0], "c": 0},\n', "")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e12, max_value=1e12),
                    min_size=1, max_size=6))
    def test_json_round_trip_is_exact_for_any_floats(self, coeffs):
        e = HermiteExpansion(1, len(coeffs) - 1,
                             {(n,): c for n, c in enumerate(coeffs)})
        back = expansion_from_json(expansion_to_json(e))
        assert back.coefficients == e.coefficients
