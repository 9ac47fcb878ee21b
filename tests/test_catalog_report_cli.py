import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gausslip.catalog import DEFAULT_SUITE, catalog_function
from gausslip.cli import build_parser, config_from_args, main
from gausslip.errors import CatalogError
from gausslip.hermite import HermiteExpansion, save_expansion
from gausslip.report import (
    ReportRow,
    failed_row,
    make_report,
    report_to_csv,
    report_to_json,
    write_report,
)
from gausslip.suites import SuiteConfig, run_suite


class TestCatalog:
    def test_constant(self):
        entry, f = catalog_function("const:2.5")
        assert entry.bounded and entry.dimension == 1
        assert f(np.zeros((3, 1))) == pytest.approx([2.5, 2.5, 2.5])

    def test_cosine_at_origin(self):
        entry, f = catalog_function("cos:1")
        assert f(np.zeros((1, 1)))[0] == 1.0

    def test_hermite_entry_uses_recurrence(self):
        entry, f = catalog_function("hermite:3")
        got = f(np.array([[1.0]]))[0]
        assert got == pytest.approx((8.0 - 12.0) / math.sqrt(48.0), rel=1e-12)
        assert not entry.bounded

    def test_hermite_multi_index(self):
        entry, f = catalog_function("hermite:1,2")
        assert entry.dimension == 2

    def test_gauss_bump_and_smooth_step(self):
        _, bump = catalog_function("gauss-bump")
        assert bump(np.array([[0.0]]))[0] == 1.0
        _, step = catalog_function("smooth-step")
        assert step(np.array([[0.0]]))[0] == pytest.approx(0.5)
        assert step(np.array([[5.0]]))[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name", [*DEFAULT_SUITE, "hermite:2"])
    def test_empty_batch(self, name):
        _, f = catalog_function(name)
        assert f(np.empty((0, 1))).shape == (0,)

    def test_expansion_entry_round_trips(self, tmp_path):
        e = HermiteExpansion(1, 3, {(0,): 0.5, (3,): -1.25})
        path = tmp_path / "exp.json"
        save_expansion(e, path)
        entry, f = catalog_function(f"expansion:{path}")
        assert entry.dimension == 1
        from gausslip.hermite import eval_expansion
        assert f(np.array([[0.7]]))[0] == pytest.approx(eval_expansion(e, 0.7))

    def test_unknown_name_echoes_grammar(self):
        with pytest.raises(CatalogError) as err:
            catalog_function("sinh:1")
        assert "grammar" in str(err.value)
        with pytest.raises(CatalogError):
            catalog_function("const:abc")
        with pytest.raises(CatalogError):
            catalog_function("hermite:x")
        with pytest.raises(CatalogError):
            catalog_function("expansion:/no/such/file.json")

    @pytest.mark.parametrize("name", ["const:nan", "const:inf", "const:-inf", "cos:inf",
                                      "cos:nan"])
    def test_non_finite_parameter_echoes_grammar(self, name):
        # const:nan once resolved, and lip.modulus then blamed the callable
        # for not being finite at a quadrature node
        with pytest.raises(CatalogError, match="finite.*grammar"):
            catalog_function(name)

    def test_expansion_file_with_a_nan_coefficient(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"d": 1, "N": 1, "entries": [{"nu": [1], "c": NaN}]}')
        with pytest.raises(CatalogError, match="must be finite"):
            catalog_function(f"expansion:{path}")

    @pytest.mark.parametrize("text", ['{"d": 1}', '[1, 2]', '{"d": 1, "N": 2, "entries": 5}',
                                      '{"d": 1, "N": 2, "entries": [{"nu": [1]}]}',
                                      '{"d": "1", "N": 2, "entries": []}',
                                      '{"d": 1, "N": 2, "entries": [{"nu": 1, "c": 0.5}]}'],
                             ids=["no-entries", "list", "entries-int", "no-c", "d-string", "nu-int"])
    def test_expansion_file_without_the_layout(self, tmp_path, text):
        # {"d": 1} once raised a bare KeyError: 'entries', which failed the
        # lipschitz rows as error:KeyError 'entries'
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(CatalogError, match=r"bad\.json.*layout.*entries"):
            catalog_function(f"expansion:{path}")


def _tiny_report():
    rows = (
        ReportRow(name="a", inputs="x=1", computed=1.0 + 1e-9, oracle=1.0,
                  tol_rel=1e-6, tol_abs=0.0),
        ReportRow(name="b", inputs="bound", computed=0.4, oracle=2.0,
                  tol_rel=0.0, tol_abs=0.0, check="bound"),
        ReportRow(name="c", inputs="fails", computed=2.0, oracle=1.0,
                  tol_rel=1e-6, tol_abs=0.0, flags=("note",)),
    )
    return make_report("demo", {"tol": 1e-6}, rows)


class TestReport:
    def test_row_semantics(self):
        r = _tiny_report()
        assert r.rows[0].passed
        assert r.rows[1].passed and r.rows[1].abs_err == 0.0
        assert not r.rows[2].passed
        assert r.summary == {"total": 3, "passed": 2, "failed": 1, "flagged": 1}

    def test_empty_report_is_valid_json(self):
        r = make_report("empty", {}, ())
        doc = json.loads(report_to_json(r))
        assert doc["rows"] == []
        assert doc["summary"]["total"] == 0

    def test_json_round_trip_preserves_floats(self):
        r = _tiny_report()
        doc = json.loads(report_to_json(r))
        assert doc["rows"][0]["computed"] == 1.0 + 1e-9
        assert doc["rows"][1]["pass"] is True
        assert doc["summary"]["failed"] == 1

    def test_json_prints_seventeen_digits(self):
        r = make_report("demo", {}, (ReportRow(
            name="third", inputs="", computed=1.0 / 3.0, oracle=0.0,
            tol_rel=1.0, tol_abs=1.0),))
        assert "0.33333333333333331" in report_to_json(r)

    def test_control_characters_in_strings_and_keys_round_trip(self):
        message = 'line one\nline\ttwo "quoted" \\ \x01'
        r = make_report("demo", {"key\n": "value\t"},
                        (failed_row("x", "in\r", message),))
        doc = json.loads(report_to_json(r))
        assert doc["rows"][0]["flags"] == ["error:" + message]
        assert doc["rows"][0]["inputs"] == "in\r"
        assert doc["config"] == {"key\n": "value\t"}

    def test_csv_shape(self):
        text = report_to_csv(_tiny_report())
        lines = text.strip().split("\n")
        assert lines[0] == "suite,name,computed,oracle,abs_err,rel_err,pass"
        assert len(lines) == 4

    def test_failed_row_records_error(self):
        row = failed_row("x", "", "boom")
        assert not row.passed
        assert row.flags[0].startswith("error:")

    def test_write_report_and_errors(self, tmp_path):
        r = _tiny_report()
        path = tmp_path / "r.json"
        write_report(r, "json", path)
        assert json.loads(path.read_text())["suite"] == "demo"
        write_report(r, "csv", tmp_path / "r.csv")
        with pytest.raises(ValueError):
            write_report(r, "yaml", tmp_path / "r.yaml")
        with pytest.raises(OSError):
            write_report(r, "json", tmp_path / "missing" / "r.json")


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_forward_diff_suite_passes(self):
        report = run_suite("forward-diff", SuiteConfig())
        assert report.summary["failed"] == 0
        assert report.summary["total"] >= 10

    def test_row_errors_do_not_abort(self):
        config = SuiteConfig(functions=("cos:1", "nope:1"))
        report = run_suite("lipschitz", config)
        errors = [r for r in report.rows if r.flags and r.flags[0].startswith("error:")]
        assert errors, "the bad catalog name should yield failed rows"
        assert report.summary["failed"] >= len(errors)
        # healthy rows still computed
        assert report.summary["passed"] > 0

    @pytest.mark.parametrize("suite, routes, names", [
        ("eigen", ("suites.ou_apply", "suites.ph_apply", "suites.mehler_kernel"),
         ("ou.kernel.d1.nu0.t0.25", "ph.subordination.d2.nu11.t1.0",
          "ph.kernel.d1.nu3.t0.25", "mehler.value.exp_t_half", "ph.limit.t_infinity")),
        ("forward-diff", ("forward_diff.forward_difference",),
         ("fdiff.identity_iiib.poly", "fdiff.bound.exp")),
        ("fractional", ("fractional.c_beta_constant", "fractional._integral_eigenvalue",
                        "fractional.apply_fractional"),
         ("c_beta.k1.beta0.5", "c_beta.sign.k3.beta2.5",
          "eigen.integral.bessel_potential.beta0.5.n1",
          "eigen.spectral.riesz_derivative.beta1.5.n9", "riesz.inverse_pair.beta0.5")),
        ("lipschitz", ("lipschitz.seminorm_estimate", "lipschitz.modulus_probe",
                       "lipschitz.sup_norm_estimate", "suites.project"),
         ("lip.seminorm.cos.grid_stability", "lip.weighting.alpha_relation",
          "lip.modulus.cos.ratio_bounded", "lip.spectral_derivative.fd_consistency",
          "lip.remark.decay_away_from_zero")),
        ("kernel-bound", ("suites.kernel_derivative_l1", "suites.derivative_weight_mass"),
         ("l1.k1.bound.t0.1", "l1.k1.majorant.t0.5", "l1.k1.true_value.scaling",
          "l1.k2.majorant.scaling")),
        ("boundedness", ("lipschitz.operator_boundedness_probe",
                         "lipschitz.seminorm_estimate"),
         ("bounded.bessel_potential.beta0.5.alpha0.4.cos:1",
          "bounded.const_image.riesz_derivative")),
    ])
    def test_failed_row_keeps_the_name_of_the_row_it_guards(self, monkeypatch, suite,
                                                            routes, names):
        def broken(*args, **kwargs):
            raise RuntimeError("route down")

        cheap = suite in ("kernel-bound", "forward-diff", "fractional", "lipschitz")
        passing = [r.name for r in run_suite(suite).rows] if cheap else None
        for route in routes:
            monkeypatch.setattr("gausslip." + route, broken)
        rows = run_suite(suite).rows
        failed = {r.name for r in rows if not r.passed}
        assert set(names) <= failed
        if cheap:
            assert [r.name for r in rows] == passing

    def test_warnings_become_row_flags(self):
        rows = {r.name: r for r in run_suite("forward-diff").rows}
        flags = rows["fdiff.bound.lowdegree"].flags
        assert len(flags) == 2
        assert all(f.startswith("warning:CancellationWarning: ") and "(k=3, s=0.2)" in f
                   for f in flags)
        assert rows["fdiff.bound.lowdegree"].passed
        assert sum(1 for r in rows.values() if r.flagged) == 1

    def test_x_count_reaches_every_sup_norm(self, monkeypatch):
        from gausslip import lipschitz
        real, real_batch = lipschitz.sup_norm_estimate, lipschitz._sup_norms
        seen, seen_batch = [], []

        def spy(f, x_radius=3.0, grid_points=121):
            seen.append(grid_points)
            return real(f, x_radius, grid_points)

        def batch_spy(fs, x_radius, grid_points):
            seen_batch.append(grid_points)
            return real_batch(fs, x_radius, grid_points)

        monkeypatch.setattr(lipschitz, "sup_norm_estimate", spy)
        monkeypatch.setattr(lipschitz, "_sup_norms", batch_spy)
        for suite in ("lipschitz", "boundedness"):
            assert run_suite(suite, SuiteConfig(x_count=61)).summary["failed"] == 0
        assert seen and set(seen) == {61}
        assert len(seen_batch) > len(seen) and set(seen_batch) == {61}

    def test_probe_rows_reject_multi_dim_catalog_functions(self):
        config = SuiteConfig(functions=("hermite:1,1",))
        rows = run_suite("lipschitz", config).rows + run_suite("boundedness", config).rows
        probed = [r for r in rows if r.name.endswith(".hermite:1,1")]
        assert {r.name.split(".")[1] for r in probed} == {
            "modulus", "inclusion", "bessel_potential", "riesz_derivative",
            "bessel_derivative", "riesz_potential"}
        for row in probed:
            assert not row.passed
            assert row.flags[0] == ("error:ValueError: the Lipschitz probes take d=1 input, "
                                    "got a d=2 catalog function 'hermite:1,1'")

    def test_config_echoed(self):
        report = run_suite("forward-diff", SuiteConfig(seed=7))
        assert report.config["seed"] == 7
        assert report.config["functions"] == list(DEFAULT_SUITE)


class TestCLI:
    def test_defaults_are_the_suite_config(self):
        assert config_from_args(build_parser().parse_args([])) == SuiteConfig()
        args = build_parser().parse_args(["--f", "cos:1", "--t-count", "3"])
        assert config_from_args(args) == SuiteConfig(functions=("cos:1",), t_count=3)

    @pytest.mark.parametrize("flag, value", [
        ("--t-min", "0"), ("--t-min", "nan"), ("--t-min", "inf"), ("--t-max", "0.01"),
        ("--t-count", "1"), ("--x-count", "1"), ("--x-count", "2"), ("--x-radius", "0"),
        ("--tol", "0"), ("--tol", "nan")])
    def test_grid_that_crashes_rows_is_a_usage_error(self, flag, value, capsys):
        # --t-min 0 once failed 19 rows with "Geometric sequence cannot
        # include zero", and --x-radius 0 failed 46 rows with ValueError
        name = flag[2:].replace("-", "_")
        with pytest.raises(ValueError, match=name):
            config_from_args(build_parser().parse_args([flag, value]))
        with pytest.raises(SystemExit) as exit_:
            main(["--suite", "kernel-bound", "--quiet", flag, value])
        assert exit_.value.code == 2
        assert f"{name} must be" in capsys.readouterr().err

    def test_exit_zero_and_report_file(self, tmp_path, capsys):
        out = tmp_path / "fd.json"
        code = main(["--suite", "forward-diff", "--out", str(out), "--quiet"])
        assert code == 0
        assert json.loads(out.read_text())["summary"]["failed"] == 0
        text = capsys.readouterr().out
        assert "suite=forward-diff" in text

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "fd.csv"
        code = main(["--suite", "forward-diff", "--format", "csv",
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert out.read_text().startswith("suite,name,computed")

    def test_failing_config_yields_nonzero_exit(self, capsys):
        code = main(["--suite", "lipschitz", "--f", "nope:1", "--quiet"])
        assert code == 1

    def test_bad_catalog_name_fails_rows_instead_of_aborting(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        code = main(["--suite", "boundedness", "--f", "nope:1", "--quiet", "--out", str(out)])
        assert code == 1
        rows = json.loads(out.read_text())["rows"]
        failed = [r for r in rows if not r["pass"]]
        assert failed and all(r["name"].endswith(".nope:1") for r in failed)
        assert all(r["flags"][0].startswith("error:CatalogError") for r in failed)
        # the rows that do not take the bad function still run and pass
        assert [r["name"] for r in rows if r["pass"]] == [
            "bounded.const_image.riesz_derivative", "bounded.const_image.bessel_potential"]

    def test_per_row_lines_printed(self, capsys):
        main(["--suite", "forward-diff"])
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_reports_are_deterministic(self):
        from gausslip.report import report_to_json
        r1 = run_suite("kernel-bound", SuiteConfig())
        r2 = run_suite("kernel-bound", SuiteConfig())
        j1 = report_to_json(r1).replace(r1.timestamp, "T")
        j2 = report_to_json(r2).replace(r2.timestamp, "T")
        assert j1 == j2

    def test_operator_flags_select_an_extra_probe(self):
        report = run_suite("boundedness", SuiteConfig(
            functions=("cos:1",), kind="riesz_derivative", beta=0.2, alpha=0.7))
        names = [r.name for r in report.rows]
        assert any("riesz_derivative.beta0.2.alpha0.7" in n for n in names)
        assert report.summary["failed"] == 0

    def test_non_spectral_probe_names_its_representation(self):
        report = run_suite("boundedness", SuiteConfig(
            functions=("cos:1",), kind="bessel_potential", beta=0.5, alpha=0.4,
            representation="integral"))
        names = [r.name for r in report.rows]
        assert len(set(names)) == len(names)
        assert "bounded.bessel_potential.beta0.5.alpha0.4.cos:1" in names
        assert "bounded.bessel_potential.integral.beta0.5.alpha0.4.cos:1" in names
        assert report.summary["failed"] == 0

    def test_reports_do_not_depend_on_blas_threads(self):
        # array products feed these reports, which must not depend on how
        # BLAS splits the products over threads
        code = ("import sys\n"
                "from gausslip.report import report_to_json\n"
                "from gausslip.suites import run_suite\n"
                "for suite in ('lipschitz', 'boundedness'):\n"
                "    r = run_suite(suite)\n"
                "    sys.stdout.write(report_to_json(r).replace(r.timestamp, 'T'))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            outs.append(proc.stdout)
        assert outs[0] and outs[0] == outs[1]

    def test_invalid_operator_hypothesis_fails_cleanly(self):
        report = run_suite("boundedness", SuiteConfig(
            functions=("cos:1",), kind="riesz_derivative", beta=0.9, alpha=0.5))
        bad = [r for r in report.rows if r.flags and "error:" in r.flags[0]]
        assert bad and report.summary["failed"] == len(bad)
