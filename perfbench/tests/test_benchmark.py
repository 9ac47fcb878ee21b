"""Self-checks of the benchmark: tracer coverage, catalogue and references.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import json
import math
import sys

import numpy as np
import pytest

import gausslip
import gausslip.cli  # noqa: F401  (the tracer wraps cli.main too)
from gausslip import SemigroupQuery, hermite_eval, ou_apply, ph_apply

import metrics
import reference
import run
from conftest import ROOT
from tracer import Tracer


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def _gausslip_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "gausslip" or name.startswith("gausslip."))]


def test_no_gausslip_name_still_points_at_an_unwrapped_function(tracer):
    originals = {id(fn): fn for fn in tracer.originals}
    stale = [f"{mod.__name__}.{attr}" for mod in _gausslip_modules()
             for attr, value in vars(mod).items()
             if originals.get(id(value)) is value]
    assert stale == []
    # the name copies made by ``from .x import y`` are the ones that matter
    from gausslip import fractional, lipschitz, semigroup, suites
    for mod, attr in ((semigroup, "integrate_halfline"), (fractional, "integrate_halfline"),
                      (lipschitz, "ph_apply"), (suites, "ph_apply")):
        assert hasattr(getattr(mod, attr), "__traced__"), f"{mod.__name__}.{attr}"


def test_uninstall_restores_every_name():
    before = {(m.__name__, a): v for m in _gausslip_modules() for a, v in vars(m).items()}
    tr = Tracer()
    tr.install()
    tr.uninstall()
    after = {(m.__name__, a): v for m in _gausslip_modules() for a, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("apply, method, span", [
    (ph_apply, "kernel", "semigroup.ph_kernel_apply"),
    (ph_apply, "subordination", "semigroup.ph_subordination_apply"),
    (ou_apply, "kernel", "semigroup.ou_kernel_apply"),
])
def test_closures_record_their_span_when_called_not_when_built(tracer, apply, method, span):
    wrapped = getattr(gausslip, apply.__name__)
    op = wrapped(lambda p: hermite_eval((1,), p), SemigroupQuery(1.0, method), d=1)
    assert tracer.calls[span] == 0
    x = np.array([[0.3], [-0.4]])
    got = op(x)
    assert tracer.calls[span] == 1
    assert tracer.counts[span + ".points"] == 2
    # on h_1 at t = 1 both semigroups multiply by e^{-1}
    assert np.allclose(got, np.exp(-1.0) * reference.h_values((1,), x), atol=1e-6)
    spans = [s for s in tracer.spans if s[0] == span]
    assert spans[0][5] <= spans[0][2] - spans[0][1]


def test_halfline_self_time_excludes_the_integrand(tracer):
    from gausslip import semigroup
    semigroup.derivative_weight_mass(0.5, 1)
    (halfline,) = [s for s in tracer.spans if s[0] == "quadrature.integrate_halfline"]
    duration = halfline[2] - halfline[1]
    assert 0.0 <= halfline[5] < duration
    assert tracer.busy["semigroup.integrand"] == pytest.approx(duration - halfline[5])
    assert tracer.counts["quadrature.halfline.nodes"] % 15 == 0


def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [tuple(m.values()) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [tuple(m.values()) for m in bench["per_layer"]] == list(metrics.PER_LAYER)


def test_reference_hermite_table_matches_hermval():
    x = np.linspace(-3.0, 3.0, 13)
    n = np.arange(41)
    table = reference.hermite_table(40, x)
    raw = np.polynomial.hermite.hermval(x, np.eye(41))
    norm = np.array([math.sqrt(2.0 ** k * math.factorial(k)) for k in n])
    assert np.allclose(table, raw / norm[:, None], rtol=1e-12, atol=1e-12)


def test_weight_mass_is_the_closed_form_of_the_library_majorant():
    for k in (1, 2, 3):
        for t in (0.2, 1.0):
            assert reference.weight_mass(k, t) == pytest.approx(
                gausslip.derivative_weight_mass(t, k), rel=1e-8)
