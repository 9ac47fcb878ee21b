"""The one point contract of every evaluator gausslip returns.

Points enter through ``hermite.as_points`` and values leave through
``hermite.point_or_batch``: a single point (a scalar, or an array of shape
(d,), which for d = 1 includes (1,)) gives a Python float; any other input
gives an array of its batch shape, empty batches included; a non-finite
coordinate raises ``ValueError`` naming "finite" before any user callable
runs.  The pair evaluators apply the rule to the broadcast batch of their
two inputs.
"""
import math

import numpy as np
import pytest

from gausslip.hermite import HermiteExpansion, as_function, eval_expansion, hermite_eval
from gausslip.semigroup import (
    SemigroupQuery,
    mehler_kernel,
    ou_apply,
    ph_apply,
    ph_kernel,
    ph_kernel_time_derivative,
)

T = 0.5


def _expansion(d: int) -> HermiteExpansion:
    return HermiteExpansion(d, 2, {(0,) * d: 0.5, (1,) + (0,) * (d - 1): -1.0})


# name -> (d, spy) -> one-input evaluator.  ``spy`` is a pointwise callable
# that records every call; the evaluators that take no callable ignore it.
EVALUATORS = {
    "hermite_eval": lambda d, spy: lambda x: hermite_eval((1,) * d, x),
    "eval_expansion": lambda d, spy: lambda x: eval_expansion(_expansion(d), x),
    "as_function": lambda d, spy: as_function(_expansion(d)),
    "ou_apply-kernel": lambda d, spy: ou_apply(spy, SemigroupQuery(T, "kernel"), d=d),
    "ph_apply-kernel-callable": lambda d, spy: ph_apply(spy, SemigroupQuery(T, "kernel"), d=d),
    "ph_apply-kernel-expansion": lambda d, spy: ph_apply(
        _expansion(d), SemigroupQuery(T, "kernel"), d=d),
    "ph_apply-subordination-callable": lambda d, spy: ph_apply(
        spy, SemigroupQuery(T, "subordination"), d=d),
}

# name -> d -> two-input evaluator
PAIRS = {
    "mehler_kernel": lambda d: lambda x, y: mehler_kernel(T, x, y, d=d),
    "ph_kernel": lambda d: lambda x, y: ph_kernel(T, x, y, d=d),
    "ph_kernel_time_derivative": lambda d: lambda x, y: ph_kernel_time_derivative(
        T, x, y, 1, d=d),
}


def _layouts(d: int) -> list:
    """(points, expected batch shape or None for a single point)."""
    rng = np.random.default_rng(d)
    single = [(0.3, None)] if d == 1 else []
    return single + [
        (rng.uniform(-1, 1, d), None),
        (rng.uniform(-1, 1, (1, d)), (1,)),
        (rng.uniform(-1, 1, (4, d)), (4,)),
        (rng.uniform(-1, 1, (2, 3, d)), (2, 3)),
        (np.empty((0, d)), (0,)),
    ]


def _spy(calls: list):
    def f(p):
        calls.append(np.array(p))
        return np.cos(p[:, 0])
    return f


def _check_shape(got, batch):
    if batch is None:
        assert type(got) is float
    else:
        assert isinstance(got, np.ndarray) and got.shape == batch


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluator_layouts(name, d):
    ev = EVALUATORS[name](d, _spy([]))
    for x, batch in _layouts(d):
        got = ev(x)
        _check_shape(got, batch)
        if batch == (2, 3):
            # the batch keeps the order of its points
            assert np.array_equal(got, ev(np.reshape(x, (-1, d))).reshape(batch))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_layouts(name, d):
    ev = PAIRS[name](d)
    y = np.full(d, 0.2)
    for x, batch in _layouts(d):
        _check_shape(ev(x, y), batch)
        _check_shape(ev(y, x), batch)
    x23, _ = _layouts(d)[-2]
    # one input's batch shape broadcasts against the other's
    _check_shape(ev(x23[0][0], x23[1]), (3,))
    _check_shape(ev(x23, x23[1]), (2, 3))


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_scalar_is_not_a_point_in_two_dimensions(name):
    with pytest.raises(ValueError, match="d=2"):
        EVALUATORS[name](2, _spy([]))(0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluator_rejects_non_finite_points(name, d, bad):
    calls = []
    ev = EVALUATORS[name](d, _spy(calls))
    single = np.full(d, 0.25)
    single[-1] = bad
    batch = np.zeros((3, d))
    batch[1, 0] = bad
    for x in ([bad] if d == 1 else []) + [single, batch, batch.reshape(1, 3, d)]:
        with pytest.raises(ValueError, match="finite"):
            ev(x)
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_rejects_non_finite_points(name, d, bad):
    ev = PAIRS[name](d)
    good = np.zeros((2, d))
    worse = good.copy()
    worse[1, -1] = bad
    with pytest.raises(ValueError, match="finite"):
        ev(worse, good)
    with pytest.raises(ValueError, match="finite"):
        ev(good, worse)
