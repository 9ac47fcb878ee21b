"""The gausslip names the benchmark in ``perfbench/`` reads.

The benchmark wraps library functions by module and name, reads the cache
statistics of the cached s-integrals and checks that ``from .x import y``
copies are wrapped too.  It is versioned apart from the library, so a
refactor that renames one of these names fails here, not in a traced run.
"""
import importlib.util
from pathlib import Path

import pytest

import gausslip
import gausslip.cli
from gausslip import forward_diff, fractional, hermite, lipschitz, quadrature, semigroup, suites

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _plain_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PLAIN


def test_every_plain_span_names_a_library_function():
    mods = {"quadrature": quadrature, "hermite": hermite, "semigroup": semigroup,
            "fractional": fractional, "lipschitz": lipschitz, "forward_diff": forward_diff,
            "cli": gausslip.cli}
    missing = [f"{mod}.{attr}" for mod, attr, _ in _plain_table()
               if not callable(getattr(mods[mod], attr, None))]
    assert missing == []


@pytest.mark.parametrize("cached", [fractional._integral_eigenvalue,
                                    semigroup._subordination_multiplier])
def test_cached_integrals_report_cache_statistics(cached):
    info = cached.cache_info()
    assert info.maxsize is not None and info.hits >= 0 and info.misses >= 0


def test_names_the_tracer_and_the_workloads_call():
    for fn in (hermite.scale_by_level, semigroup.derivative_weight_mass,
               forward_diff.forward_difference_curve, quadrature.integrate_halfline,
               suites.run_suite, gausslip.report.write_report):
        assert callable(fn)
    # the name copies the tracer must find and wrap
    assert lipschitz.ph_apply is semigroup.ph_apply
    assert suites.ph_apply is semigroup.ph_apply
    assert semigroup.integrate_halfline is quadrature.integrate_halfline
    assert fractional.integrate_halfline is quadrature.integrate_halfline
    assert isinstance(quadrature._TENSOR_CACHE, dict)
