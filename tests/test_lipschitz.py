import math
import re
import tracemalloc

import numpy as np
import pytest

from gausslip import hermite, lipschitz, semigroup
from gausslip.catalog import catalog_function
from gausslip.fractional import FractionalSpec, apply_fractional
from gausslip.hermite import (
    HermiteExpansion,
    eval_coefficients,
    eval_expansion,
    project,
    remove_mean,
    scale_by_level,
)
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


def _rough(degree_cap=40, seed=3):
    rng = np.random.default_rng(seed)
    return HermiteExpansion(1, degree_cap, {(n,): float(rng.uniform(-1, 1)) * (1.0 + n) ** -0.6
                                            for n in range(degree_cap + 1)})


def _coarse_windows(fs, x_radius=3.0, grid_points=121):
    """The coarse argmax index of each row of a coefficient array."""
    xs = np.linspace(-x_radius, x_radius, grid_points)
    return np.abs(eval_coefficients(fs, 1, fs.shape[1] - 1, xs[:, None])).argmax(axis=1)


def _boundedness_rows(expansions):
    """The coefficient array of one boundedness probe on ``expansions``: per
    f its 66 rows (f, its t-rows, op(f), its rows on both t-grids)."""
    refined = np.geomspace(T_GRID[0], T_GRID[-1], 2 * len(T_GRID))
    blocks = []
    for e in expansions:
        image = apply_fractional(e, FractionalSpec("bessel_potential", 0.5)).vector
        blocks += [e.vector, e.vector * lipschitz._derivative_symbol(e, 1, T_GRID),
                   image, image * lipschitz._derivative_symbol(e, 1, T_GRID),
                   image * lipschitz._derivative_symbol(e, 1, refined)]
    return np.vstack(blocks)


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
        op = FractionalSpec("bessel_potential", 0.5)
        message = re.escape("the Lipschitz probes take d=1 input, got a d=2 expansion")
        for probe in (lambda: sup_norm_estimate(e), lambda: seminorm_estimate(e, 0.5),
                      lambda: modulus_probe(e, 0.5), lambda: inclusion_probe(e, 0.4, 0.8),
                      lambda: derivative_equivalence_probe(e, 0.5, 1, 2),
                      lambda: operator_boundedness_probe(op, [("h11", e)], 0.4)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                probe()

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            sup_norm_estimate(_cos(), 3.0, grid_points=2)

    @pytest.mark.parametrize("x_radius", [math.nan, math.inf, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, x_radius):
        with pytest.raises(ValueError, match="x_radius"):
            sup_norm_estimate(_cos(), x_radius)
        with pytest.raises(ValueError, match="x_radius"):
            seminorm_estimate(_cos(), 0.5, T_GRID, x_radius)


class TestGridPoints:
    """``x_radius`` and ``grid_points`` key the cached grid tables:
    ``grid_points`` must be an integer, and numpy scalars work as before."""

    @pytest.mark.parametrize("grid_points", [121.0, "121", None, np.float64(121)])
    def test_non_integer_grid_points_named(self, grid_points):
        op = FractionalSpec("bessel_potential", 0.5)
        for probe in (lambda: sup_norm_estimate(_cos(), 3.0, grid_points),
                      lambda: sup_norm_estimate(_rough(), 3.0, grid_points),
                      lambda: seminorm_estimate(_rough(), 0.5, T_GRID, grid_points=grid_points),
                      lambda: modulus_probe(_rough(), 0.5, grid_points=grid_points),
                      lambda: inclusion_probe(_rough(), 0.4, 0.8, grid_points=grid_points),
                      lambda: derivative_equivalence_probe(_rough(), 0.5, 1, 2,
                                                           grid_points=grid_points),
                      lambda: operator_boundedness_probe(op, [("rough", _rough())], 0.4,
                                                         grid_points=grid_points)):
            with pytest.raises(ValueError, match="grid_points"):
                probe()

    @pytest.mark.parametrize("x_radius", ["3", None, [3.0], np.array([2.0, 3.0]), 3.0j])
    def test_non_numeric_x_radius_named(self, x_radius):
        with pytest.raises(ValueError, match="x_radius"):
            sup_norm_estimate(_cos(), x_radius)
        with pytest.raises(ValueError, match="x_radius"):
            seminorm_estimate(_rough(), 0.5, T_GRID, x_radius)

    def test_numpy_scalars_accepted(self):
        assert sup_norm_estimate(_rough(), 3.0, np.int64(121)) == sup_norm_estimate(_rough())
        assert sup_norm_estimate(_rough(), np.array(3.0)) == sup_norm_estimate(_rough())
        assert (seminorm_estimate(_rough(), 0.5, T_GRID, grid_points=np.int32(61))
                == seminorm_estimate(_rough(), 0.5, T_GRID, grid_points=61))


class TestFixedGridTables:
    """The grid, windows and Hermite tables of ``_sup_norms`` are built once
    per process per (N, R, P): probes on interleaved keys give what they give
    on cold caches, and no cached array can be written into."""

    KEYS = ((40, 3.0, 121), (8, 2.5, 61))

    @staticmethod
    def _probes(key):
        n_max, x_radius, grid_points = key
        e, op = _rough(n_max), FractionalSpec("bessel_potential", 0.5)
        return (sup_norm_estimate(e, x_radius, grid_points),
                sup_norm_estimate(_cos(), x_radius, grid_points),
                seminorm_estimate(e, 0.5, T_GRID, x_radius, grid_points=grid_points),
                operator_boundedness_probe(op, [("rough", e)], 0.4, T_GRID,
                                           x_radius=x_radius, grid_points=grid_points))

    def test_interleaved_keys_give_cold_results(self):
        cold = []
        for key in self.KEYS:
            lipschitz._sup_grid.cache_clear()
            lipschitz._sup_tables.cache_clear()
            cold.append(self._probes(key))
        for _ in range(2):
            for key, want in zip(self.KEYS, cold):
                assert self._probes(key) == want
        assert lipschitz._sup_tables.cache_info().currsize == 2

    def test_cached_arrays_are_read_only(self):
        arrays = lipschitz._sup_grid(3.0, 121) + lipschitz._sup_tables(40, 3.0, 121)
        assert [a.shape for a in arrays] == [(121,), (121, 41), (41, 121), (41, 121, 41)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 2.0


class TestProbeArguments:
    """Every probe rejects a t-grid or an order it cannot use, by name,
    instead of returning nan, dropping a row or failing deep inside."""

    OP = FractionalSpec("bessel_potential", 0.5)

    @staticmethod
    def _probes(t_grid):
        op = TestProbeArguments.OP
        return (lambda: seminorm_estimate(_cos(), 0.5, t_grid),
                lambda: modulus_probe(_cos(), 0.5, t_grid=t_grid),
                lambda: inclusion_probe(_cos(), 0.4, 0.8, t_grid),
                lambda: derivative_equivalence_probe(_cos(), 0.5, 1, 2, t_grid),
                lambda: operator_boundedness_probe(op, [("cos", _cos())], 0.4, t_grid))

    @pytest.mark.parametrize("t_grid", [(0.1, math.nan), (0.1, math.inf), (-0.1, 1.0),
                                        (0.0, 1.0), ()])
    def test_t_grid_must_be_nonempty_finite_and_positive(self, t_grid):
        for probe in self._probes(t_grid):
            with pytest.raises(ValueError, match="t-grid"):
                probe()

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_named(self, alpha):
        for probe in (lambda: seminorm_estimate(_cos(), alpha),
                      lambda: modulus_probe(_cos(), alpha),
                      lambda: derivative_equivalence_probe(_cos(), alpha, 1, 2),
                      lambda: inclusion_probe(_cos(), 0.5, alpha)):
            with pytest.raises(ValueError, match="alpha"):
                probe()

    def test_modulus_checks_its_order(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            modulus_probe(_cos(), -0.5)
        with pytest.raises(ValueError, match="must exceed alpha"):
            modulus_probe(_cos(), 0.5, n=0)

    @pytest.mark.parametrize("k, l", [(1.5, 2), (1, 2.5)])
    def test_equivalence_orders_must_be_integers(self, k, l):
        with pytest.raises(ValueError, match="must be an integer"):
            derivative_equivalence_probe(_cos(), 0.5, k, l, T_GRID)


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

    @pytest.mark.parametrize("name, t", [("cos:1", 0.585), ("cos:2", 0.271)])
    def test_boundary_flag_of_the_row_that_attains_a_alpha(self, name, t):
        # f's own argmax is inside the box, that of the t-row attaining
        # A_alpha is on its edge: the sup there may lie outside the box
        f = catalog_function(name)[1]
        est = seminorm_estimate(f, 0.5)
        top = max(est.rows, key=lambda r: r.weighted)
        assert top.t == pytest.approx(t, abs=1e-3)
        assert not sup_norm_estimate(f).boundary
        row = ph_apply(project(f, 1, 40), SemigroupQuery(top.t, "spectral", 1))
        assert abs(sup_norm_estimate(row).location) == pytest.approx(3.0, abs=1e-9)
        assert "boundary" in est.flags

    def test_no_boundary_flag_on_projection_noise(self):
        # const:1's rows are ~1e-14 of roundoff, some argmaxes on the edge
        est = seminorm_estimate(catalog_function("const:1")[1], 0.5)
        assert est.a_alpha <= 1e-12 and est.flags == ()

    def test_rough_expansion_flagged_non_convergent(self):
        from gausslip.hermite import HermiteExpansion
        # slowly decaying coefficients: the weighted rows still rise at the
        # smallest grid time, so membership is not supported at this resolution
        e = HermiteExpansion(1, 40, {(n,): 1.0 / (n + 1.0) for n in range(41)})
        est = seminorm_estimate(e, 0.5, t_grid=(0.3, 0.6, 1.2, 2.4))
        assert "non_convergent" in est.flags


class TestBatchedRows:
    """A probe evaluates all its t-rows together; each row must equal, bit for
    bit, the per-t route, one sup_norm_estimate per expansion."""

    @pytest.fixture(params=["cos", "rough"])
    def expansion(self, request):
        if request.param == "cos":
            return project(_cos(), 1, 40)
        return _rough()

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_seminorm_rows(self, expansion, alpha):
        est = seminorm_estimate(expansion, alpha, T_GRID)
        for row in est.rows:
            deriv = ph_apply(expansion, SemigroupQuery(row.t, "spectral", est.n))
            assert row.sup_norm == sup_norm_estimate(deriv).value
        assert est.sup_norm_f == sup_norm_estimate(expansion).value

    def test_modulus_rows(self, expansion):
        rep = modulus_probe(expansion, 1.5, t_grid=T_GRID)
        for row in rep.rows:
            diff = scale_by_level(expansion, lambda m: np.expm1(-np.sqrt(m) * row.t) ** 2)
            assert row.norm == sup_norm_estimate(diff).value

    def test_rows_do_not_depend_on_their_batch(self, expansion):
        sub = T_GRID[::7]
        assert len(sub) == 3
        for probe in (lambda grid: seminorm_estimate(expansion, 0.5, grid),
                      lambda grid: modulus_probe(expansion, 1.5, t_grid=grid)):
            full = {row.t: row for row in probe(T_GRID).rows}
            assert [row == full[row.t] for row in probe(sub).rows] == [True] * 3
        assert (seminorm_estimate(expansion, 0.5, sub).sup_norm_f
                == seminorm_estimate(expansion, 0.5, T_GRID).sup_norm_f)
        # one boundedness probe's 66 rows of f: rows that share a refinement
        # window inside the batch give what they give alone
        batch = _boundedness_rows([expansion])
        assert batch.shape == (66, 41)
        windows = _coarse_windows(batch)
        shared = [r for r in range(66) if np.count_nonzero(windows == windows[r]) > 1]
        assert len(shared) >= 10
        value, location, boundary = lipschitz._sup_norms(batch, 3.0, 121)
        alone = [lipschitz._sup_norms(batch[r:r + 1], 3.0, 121) for r in shared]
        assert [(value[r], location[r], boundary[r]) == tuple(a[0] for a in one)
                for r, one in zip(shared, alone)] == [True] * len(shared)

    def test_seminorm_builds_no_expansion_per_t_and_one_table_per_pass(self, expansion,
                                                                       monkeypatch):
        calls = {"tables": 0, "per_t": 0}
        real_table = hermite.hermite_values_1d

        def table(*args):
            calls["tables"] += 1
            return real_table(*args)

        def per_t(*args, **kwargs):
            calls["per_t"] += 1
            raise AssertionError("a probe row built as its own expansion")

        monkeypatch.setattr(hermite, "hermite_values_1d", table)
        for mod in (semigroup, lipschitz):
            monkeypatch.setattr(mod, "ph_apply", per_t, raising=False)
        for mod in (hermite, lipschitz):
            monkeypatch.setattr(mod, "scale_by_level", per_t, raising=False)
        est = seminorm_estimate(expansion, 0.5, T_GRID)
        assert len(est.rows) == 16
        # the first pass builds the coarse grid's table and the windows' table
        assert calls == {"tables": 2, "per_t": 0}
        # a second pass on the same (N, R, P) builds none
        assert seminorm_estimate(expansion, 1.5, T_GRID).rows
        assert calls == {"tables": 2, "per_t": 0}


def _sup_norms_per_centre(fs, x_radius=3.0, grid_points=121):
    """``_sup_norms`` of a coefficient array in its per-centre form: each
    distinct coarse argmax's window table contracted with only its rows."""
    xs, windows = lipschitz._sup_grid(x_radius, grid_points)
    coarse_table, window_table = lipschitz._sup_tables(fs.shape[1] - 1, x_radius, grid_points)
    vals = np.abs(np.einsum("tn,nb->tb", fs, coarse_table))
    i = np.argmax(vals, axis=1)
    fvals = np.empty((len(fs), windows.shape[1]))
    for center in sorted(set(i.tolist())):
        members = i == center
        fvals[members] = np.abs(np.einsum("tn,nb->tb", fs[members], window_table[:, center]))
    j = np.argmax(fvals, axis=1)
    coarse, refined = vals.max(axis=1), fvals.max(axis=1)
    location = np.where(refined >= coarse, windows[i, j], xs[i])
    return np.maximum(refined, coarse), location, (i == 0) | (i == grid_points - 1)


class TestSupNormCore:
    """``_sup_norms`` returns value, location and boundary arrays; its blocked
    fine pass gives, bit for bit, the per-centre contraction."""

    @pytest.fixture(scope="class")
    def rows(self):
        batch = _boundedness_rows([project(_cos(), 1, 40), _rough()])
        assert batch.shape == (132, 41)
        return batch

    @pytest.mark.parametrize("K", [1, 15, 16, 17, 33, 132])
    def test_matches_the_per_centre_loop(self, rows, K):
        # interleave the two functions' rows, so shared windows span blocks
        fs = rows[np.argsort(np.arange(132) % 66, kind="stable")][:K]
        got = lipschitz._sup_norms(fs, 3.0, 121)
        want = _sup_norms_per_centre(fs)
        assert [g.shape for g in got] == [(K,)] * 3
        assert got[2].dtype == bool
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        if K == 132:
            windows = _coarse_windows(fs)
            counts = np.bincount(windows)[windows]
            assert (counts > 1).sum() >= 10 and (counts == 1).sum() >= 1

    def test_callable_rows(self):
        value, location, boundary = lipschitz._sup_norms(lambda p: np.cos(p[:, 0]), 3.5, 121)
        assert [a.shape for a in (value, location, boundary)] == [(1,)] * 3
        est = sup_norm_estimate(lambda p: np.cos(p[:, 0]), 3.5)
        assert (est.value, est.location, est.boundary) == (value[0], location[0], boundary[0])
        assert type(est.value) is float and type(est.boundary) is bool

    def test_warm_boundedness_probe_peak(self):
        suite = [("cos", project(_cos(), 1, 40)), ("rough", _rough())]

        def probe():
            return operator_boundedness_probe(FractionalSpec("bessel_potential", 0.5), suite,
                                              0.4, T_GRID)

        probe()
        tracemalloc.start()
        try:
            probe()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 0.40 MiB with the gathers of 8 rows' (41, 41) window tables;
        # one gather of all 132 rows takes it to about 1.9 MiB
        assert peak <= 0.5 * 2 ** 20


class TestOnePassPerProbe:
    """A probe takes every sup-norm from one ``_sup_norms`` call.  The first
    call on an (N, R, P) key builds one Hermite table for the coarse grid and
    one for the refinement windows of every coarse node; later calls on that
    key build none."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"sup_norms": [], "tables": []}
        real_sup_norms, real_table = lipschitz._sup_norms, hermite.hermite_values_1d

        def sup_norms(fs, *args):
            calls["sup_norms"].append(fs)
            return real_sup_norms(fs, *args)

        def table(n_max, x):
            calls["tables"].append(np.shape(x))
            return real_table(n_max, x)

        monkeypatch.setattr(lipschitz, "_sup_norms", sup_norms)
        monkeypatch.setattr(hermite, "hermite_values_1d", table)
        return calls

    def test_boundedness_probe(self, calls):
        suite = [("cos", project(_cos(), 1, 40)), ("rough", _rough())]
        calls["tables"].clear()
        rep = operator_boundedness_probe(FractionalSpec("bessel_potential", 0.5), suite,
                                         0.4, T_GRID)
        assert len(rep.rows) == 2
        assert len(calls["sup_norms"]) == 1
        (fs,) = calls["sup_norms"]
        assert fs.shape == (2 * 66, 41)
        assert calls["tables"] == [(121,), (121, 41)]
        operator_boundedness_probe(FractionalSpec("riesz_derivative", 0.2), suite, 0.4, T_GRID)
        assert len(calls["sup_norms"]) == 2
        assert calls["tables"] == [(121,), (121, 41)]
        # the windows of distinct argmaxes are indexed, not rebuilt
        assert len(set(_coarse_windows(fs).tolist())) < len(fs)

    def test_equivalence_probe(self, calls):
        e = _rough()
        calls["tables"].clear()
        derivative_equivalence_probe(e, 0.5, 1, 2, T_GRID)
        assert len(calls["sup_norms"]) == 1
        (fs,) = calls["sup_norms"]
        assert fs.shape == (1 + 2 * len(T_GRID), 41)
        assert calls["tables"] == [(121,), (121, 41)]
        derivative_equivalence_probe(e, 1.5, 2, 3, T_GRID)
        assert len(calls["sup_norms"]) == 2
        assert calls["tables"] == [(121,), (121, 41)]


class TestProbesMatchSeminormEstimate:
    """The one-pass probes give, bit for bit, what ``seminorm_estimate`` gives
    on the same inputs."""

    SUITE = (("cos", project(_cos(), 1, 40)), ("rough", _rough()))

    @pytest.mark.parametrize("kind, beta, alpha, representation", [
        ("bessel_potential", 0.5, 0.4, "spectral"),
        ("riesz_derivative", 0.3, 0.9, "spectral"),
        ("bessel_derivative", 1.5, 2.2, "spectral"),
        ("riesz_potential", 0.5, 0.5, "integral"),
    ])
    def test_boundedness_rows(self, kind, beta, alpha, representation):
        spec = FractionalSpec(kind, beta, representation=representation)
        rep = operator_boundedness_probe(spec, self.SUITE, alpha, T_GRID)
        refined = np.geomspace(T_GRID[0], T_GRID[-1], 2 * len(T_GRID))
        for row, (name, e) in zip(rep.rows, self.SUITE):
            if representation == "integral":
                e = remove_mean(e)
            image = apply_fractional(e, spec)
            source = seminorm_estimate(e, alpha, T_GRID)
            target = seminorm_estimate(image, rep.target_alpha, T_GRID)
            target_ref = seminorm_estimate(image, rep.target_alpha, refined)
            assert row.name == name
            assert row.source_norm == source.sup_norm_f + source.a_alpha
            assert row.target_seminorm == target.a_alpha
            assert row.refined_seminorm == target_ref.a_alpha
            assert row.flags == tuple(sorted(set(source.flags) | set(target.flags)))

    @pytest.mark.parametrize("alpha, k, l", [(0.5, 1, 2), (1.5, 3, 2)])
    def test_equivalence_orders(self, alpha, k, l):
        for _, e in self.SUITE:
            rep = derivative_equivalence_probe(e, alpha, k, l, T_GRID)
            assert rep.a_k == seminorm_estimate(e, alpha, T_GRID, n=k).a_alpha
            assert rep.a_l == seminorm_estimate(e, alpha, T_GRID, n=l).a_alpha

    def test_mixed_degree_caps(self):
        spec = FractionalSpec("riesz_derivative", 0.3)
        suite = [("n20", _rough(20, seed=4)), ("n40", _rough(40))]
        together = operator_boundedness_probe(spec, suite, 0.9, T_GRID).rows
        alone = tuple(operator_boundedness_probe(spec, [pair], 0.9, T_GRID).rows[0]
                      for pair in suite)
        assert repr(together) == repr(alone)

    def test_rows_are_plain_floats(self):
        spec = FractionalSpec("bessel_potential", 0.5)
        rep = operator_boundedness_probe(spec, self.SUITE, 0.4, T_GRID)
        for row in rep.rows:
            for field in ("source_norm", "target_seminorm", "refined_seminorm", "ratio",
                          "drift"):
                assert type(getattr(row, field)) is float
        est = seminorm_estimate(self.SUITE[0][1], 0.5, np.geomspace(0.1, 2.0, 5))
        assert all(type(t) is float for t in est.t_grid)
        assert all(type(r.t) is float and type(r.weighted) is float for r in est.rows)


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

    def test_empty_suite_is_rejected(self):
        # a probe of no function checked nothing and reported stable=True
        spec = FractionalSpec("bessel_potential", 0.5)
        with pytest.raises(ValueError, match="at least one function"):
            operator_boundedness_probe(spec, [], 0.4, T_GRID)


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
