"""A sweep over every route that runs a half-line s-integral.

``integrate_halfline`` accepts a level once its last correction is below
tol, or once the corrections contract geometrically and their tail is below
tol (``quadrature.integrate_halfline``).  Over the kernel route on h_n, the
subordination route on cos, ``kernel_derivative_l1``, the pointwise kernels
and the integral fractional eigenvalues, each case must

* raise ``ConvergenceError`` exactly where the rule that waits for two
  levels to agree raises (``RAISES``): the geometric test must not make a
  call return where rounding or cancellation keeps tol out of reach;
* otherwise land within tol of the same call at tol / 100, wherever that
  call converges, and within tol of the closed form where one exists:
  (-sqrt n)^k e^{-sqrt(n) t} h_n and ``eigenvalue_oracle``.  The kernel
  route contracts h_n(y) - h_n(x), so its y-quadrature error no longer
  grows like t^-k at small t: every case lands within tol of its closed
  form (the worst is 0.39 tol, kernel-n3-k3-t0.05-tol1e-09).
"""
import math

import numpy as np
import pytest

from gausslip import fractional
from gausslip.errors import ConvergenceError
from gausslip.hermite import hermite_eval
from gausslip.semigroup import (
    SemigroupQuery,
    kernel_derivative_l1,
    ph_apply,
    ph_kernel,
    ph_kernel_time_derivative,
)

XS = np.linspace(-2.5, 2.5, 5)
TOLS = (1e-9, 1e-7)

# the cases that raise ConvergenceError: the kernel and subordination routes
# at small t, where the terms of d^k g/dt^k reach ~t^-k and cancel (on h_0
# the kernel route's terms are all exactly 0, so it returns 0 there)
RAISES = {
    "kernel-n1-k2-t0.001-tol1e-09",
    "kernel-n1-k3-t0.001-tol1e-07", "kernel-n1-k3-t0.001-tol1e-09",
    "kernel-n1-k3-t0.01-tol1e-09", "kernel-n3-k2-t0.001-tol1e-07",
    "kernel-n3-k2-t0.001-tol1e-09", "kernel-n3-k2-t0.01-tol1e-09",
    "kernel-n3-k3-t0.001-tol1e-07", "kernel-n3-k3-t0.001-tol1e-09",
    "kernel-n3-k3-t0.01-tol1e-09", "kernel-n6-k2-t0.001-tol1e-09",
    "kernel-n6-k3-t0.001-tol1e-07", "kernel-n6-k3-t0.001-tol1e-09",
    "kernel-n6-k3-t0.01-tol1e-09", "subordination-cos-k3-t0.01-tol1e-09",
}


def _kernel(n, k, t):
    want = (-math.sqrt(n)) ** k * math.exp(-math.sqrt(n) * t) * hermite_eval((n,), XS)
    return (lambda tol: ph_apply(lambda p: hermite_eval((n,), p),
                                 SemigroupQuery(t, "kernel", k), tol=tol)(XS[:, None]), want)


def _subordination(k, t):
    return (lambda tol: ph_apply(lambda p: np.cos(p[:, 0]),
                                 SemigroupQuery(t, "subordination", k), tol=tol)(XS[:, None]),
            None)


def _l1(k, t, x):
    return lambda tol: kernel_derivative_l1(t, x, k, tol).value, None


def _pointwise_kernel(k, t):
    y = -0.7 * XS
    if k == 0:
        return lambda tol: ph_kernel(t, XS, y, tol=tol), None
    return lambda tol: ph_kernel_time_derivative(t, XS, y, k, tol=tol), None


def _eigenvalues(kind, beta):
    levels = (1, 2, 5, 17, 40)
    want = [fractional.eigenvalue_oracle(kind, beta, n, "integral") for n in levels]
    k = fractional.smallest_integer_above(beta)
    return (lambda tol: fractional._integral_eigenvalue.__wrapped__(kind, beta, k, levels, tol),
            np.array(want))


def _cases():
    for tol in TOLS:
        for n in (0, 1, 3, 6):
            for k in range(4):
                for t in (1e-3, 0.01, 0.05, 0.3, 1.0, 4.0):
                    yield f"kernel-n{n}-k{k}-t{t}-tol{tol}", tol, _kernel(n, k, t)
        for k in range(4):
            for t in (0.01, 0.1, 1.0):
                yield f"subordination-cos-k{k}-t{t}-tol{tol}", tol, _subordination(k, t)
                yield f"ph_kernel-k{k}-t{t}-tol{tol}", tol, _pointwise_kernel(k, t)
        for k in (1, 2, 3):
            for t in (0.01, 0.1, 1.0):
                for x in (0.0, 2.0):
                    yield f"l1-k{k}-t{t}-x{x}-tol{tol}", tol, _l1(k, t, x)
        for kind in fractional.KINDS:
            for beta in (0.3, 0.8, 1.4, 2.5):
                yield f"{kind}-beta{beta}-tol{tol}", tol, _eigenvalues(kind, beta)


CASES = {name: (tol, case) for name, tol, case in _cases()}


def test_listed_cases_exist():
    assert RAISES <= CASES.keys()


@pytest.mark.parametrize("name", CASES)
def test_sweep(name):
    tol, (call, want) = CASES[name]
    if name in RAISES:
        with pytest.raises(ConvergenceError):
            call(tol)
        return
    got = np.atleast_1d(call(tol))
    try:
        finer = call(tol / 100)
    except ConvergenceError:
        pass
    else:
        assert np.max(np.abs(got - finer)) <= tol
    if want is not None:
        assert np.max(np.abs(got - want)) <= tol
