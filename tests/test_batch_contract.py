"""The batch contract of ``quadrature.eval_batch``, through every entry point.

A callable written for one point, ``lambda p: np.exp(-np.sum(p ** 2))``,
answers a batch with a single number.  Its one fallback is the per-node
path, the same as for a callable that rejects the batch, so every route gives
it the values of its vectorized twin; no number is broadcast to every node.
"""
import math

import numpy as np
import pytest

from gausslip.hermite import project
from gausslip.lipschitz import seminorm_estimate, sup_norm_estimate
from gausslip.quadrature import (
    eval_batch,
    gauss_hermite_rule,
    integrate_gaussian,
    integrate_halfline,
)
from gausslip.semigroup import SemigroupQuery, ou_apply, ph_apply


def point_style(p):
    return np.exp(-np.sum(p ** 2))


def vectorized(p):
    return np.exp(-np.sum(p ** 2, axis=-1))


def _at_origin(make):
    return lambda f: make(f)(np.zeros((1, 1)))


# name -> f -> result; each result is compared bit for bit between the twins.
# Broadcasting the single number to every node gave 0.0 for
# integrate_gaussian and seminorm_estimate, 2.5e-158 for sup_norm_estimate,
# and 0.0 on every semigroup route
ENTRY_POINTS = {
    "integrate_gaussian-d2": lambda f: integrate_gaussian(f, 2),
    "project": lambda f: project(f, 1, 8).vector,
    "sup_norm_estimate": lambda f: sup_norm_estimate(f).value,
    "seminorm_estimate": lambda f: seminorm_estimate(f, 0.5).a_alpha,
    "ou_apply-kernel": _at_origin(lambda f: ou_apply(f, SemigroupQuery(0.4, "kernel"))),
    "ph_apply-kernel-k1": _at_origin(lambda f: ph_apply(f, SemigroupQuery(0.4, "kernel", 1))),
    "ph_apply-subordination": _at_origin(
        lambda f: ph_apply(f, SemigroupQuery(0.4, "subordination"))),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_point_style_callable_matches_its_vectorized_twin(name):
    got, want = (np.asarray(ENTRY_POINTS[name](f)) for f in (point_style, vectorized))
    assert np.any(want != 0.0)
    assert np.array_equal(got, want)


def test_point_style_halfline_integrand():
    # the broadcast value made every level's sum grow with its node count
    tol = 1e-10
    assert abs(integrate_halfline(lambda s: np.exp(-np.sum(s)), tol) - 1.0) <= tol


def test_point_style_reduction():
    # np.sum over the whole batch once gave 2016 here
    got = integrate_gaussian(lambda p: np.sum(p ** 2), 1)
    assert got == pytest.approx(0.5, rel=1e-13)


def test_constant_callable_is_called_once_per_node():
    calls = []

    def const(p):
        calls.append(np.shape(p))
        return 2.0

    assert integrate_gaussian(const, 1, gauss_hermite_rule(8)) == pytest.approx(
        2.0, rel=1e-14)
    assert calls == [(8, 1)] + [(1,)] * 8


@pytest.mark.parametrize("f", [lambda p: np.exp(1j * p[:, 0]),
                               lambda p: complex(math.cos(p[0]), 0.0)],
                         ids=["batch", "per-node"])
def test_complex_values_are_rejected(f):
    # the float cast once dropped the imaginary part with a ComplexWarning
    with pytest.raises(ValueError, match="complex128"):
        integrate_gaussian(f, 1)
    with pytest.raises(ValueError, match="complex128"):
        eval_batch(f, np.zeros((3, 1)))
