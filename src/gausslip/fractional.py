"""Bessel/Riesz fractional integrals and derivatives on Hermite expansions.

Each operator exists in two representations that are kept as first-class
citizens:

* ``spectral``: multiplier action on chaos level n,
    bessel_potential  (1+n)^{-beta/2}     riesz_potential  n^{-beta/2} (0 at n=0)
    bessel_derivative (1+n)^{+beta/2}     riesz_derivative n^{+beta/2}
* ``integral``: the subordinated s-integral computed numerically per chaos
  level.  For the Riesz pair this reproduces the spectral multipliers; for
  the Bessel pair it yields (1 + sqrt(n))^{-+beta} instead, a genuinely
  different operator, and both are reported side by side.

The derivative integrands use the k-th power (P_s - I)^k, whose symbol on
a level with rate a is (e^{-a s} - 1)^k.  It is evaluated through expm1,
free of the cancellation that a binomial sum of exponentials suffers at
small s, and in log space together with s^{-beta-1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hermite import HermiteExpansion, scale_by_level
from .quadrature import integrate_halfline

KINDS = ("bessel_potential", "riesz_potential", "riesz_derivative", "bessel_derivative")
REPRESENTATIONS = ("spectral", "integral")


def smallest_integer_above(beta: float) -> int:
    """Smallest integer k with beta < k."""
    k = int(math.floor(beta)) + 1
    return k


@dataclass(frozen=True)
class FractionalSpec:
    """Operator kind, order beta and representation."""

    kind: str
    beta: float
    representation: str = "spectral"
    tol = 1e-9  # not a field: the integral eigenvalues' half-line tolerance

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; expected one of {KINDS}")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        if not 0 < self.beta < math.inf:
            raise ValueError("order beta must be finite and positive")

    @property
    def k(self) -> int:
        """Difference order of the derivative integrands, the smallest integer above beta."""
        return smallest_integer_above(self.beta)


@lru_cache(maxsize=64)
def c_beta_constant(beta: float, k: int) -> float:
    """c^k_beta = ∫_0^infty u^{-beta-1} (e^{-u} - 1)^k du, 0 < beta < k.

    Computed by half-line quadrature of ``_difference_integrand`` at rate 1.
    Negative for odd k.
    """
    if not 0 < beta < k:
        raise ValueError("c^k_beta requires 0 < beta < k")
    return float(integrate_halfline(_difference_integrand(1.0, beta, k), tol=1e-12))


def _difference_integrand(a: float, beta: float, k: int):
    """s -> (e^{-a s} - 1)^k s^{-beta-1}, the symbol of (P_s - I)^k on a level
    with rate a against s^{-beta-1}.

    Formed in log space, (-1)^k exp(k log(-expm1(-a s)) - (beta+1) log s):
    the factors alone overflow at the tiny s the half-line rule reaches, and
    expm1 keeps (e^{-a s} - 1) free of cancellation there.
    """
    sign = (-1.0) ** k

    def integrand(s):
        return sign * np.exp(k * np.log(-np.expm1(-a * s)) - (beta + 1.0) * np.log(s))

    return integrand


def c_beta_closed_form(beta: float, k: int) -> float:
    """Analytic continuation Gamma(-beta) sum_{j=1}^k C(k,j) (-1)^{k-j} j^beta.

    Valid for non-integer beta only (the Gamma factor has poles otherwise);
    used as an independent cross-check of the quadrature path.
    """
    if not 0 < beta < k:
        raise ValueError("c^k_beta requires 0 < beta < k")
    if float(beta).is_integer():
        raise ValueError("the closed form has Gamma poles at integer beta; "
                         "use the quadrature path")
    acc = sum(math.comb(k, j) * (-1) ** (k - j) * j ** beta for j in range(1, k + 1))
    return math.gamma(-beta) * acc


@lru_cache(maxsize=8192)
def _integral_eigenvalue(kind: str, beta: float, k: int, n: int, tol: float) -> float:
    """Numerical action of the integral representation on chaos level n.

    P_s acts on level n by e^{-a s} with rate a = sqrt(n) for the Riesz
    kinds and a = 1 + sqrt(n) for the Bessel kinds.
    """
    a = 1.0 + math.sqrt(n) if kind.startswith("bessel") else math.sqrt(n)
    if kind.endswith("potential"):
        if a == 0.0:
            raise ValueError("the integral Riesz potential is undefined on the mean "
                             "component; remove the mean first")

        def integrand(s):
            return np.exp((beta - 1.0) * np.log(s) - a * s)

        return float(integrate_halfline(integrand, tol=tol)) / math.gamma(beta)

    if a == 0.0:
        return 0.0

    num = float(integrate_halfline(_difference_integrand(a, beta, k), tol=tol))
    return num / c_beta_constant(beta, k)


def eigenvalue_oracle(kind: str, beta: float, n: int, representation: str) -> float:
    """Closed-form action on chaos level n backing every representation."""
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    if representation not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")
    if n < 0:
        raise ValueError("chaos level must be >= 0")
    root = math.sqrt(n)
    if kind == "bessel_potential":
        return (1.0 + n) ** (-beta / 2.0) if representation == "spectral" \
            else (1.0 + root) ** (-beta)
    if kind == "bessel_derivative":
        return (1.0 + n) ** (beta / 2.0) if representation == "spectral" \
            else (1.0 + root) ** beta
    if kind == "riesz_potential":
        if n == 0:
            if representation == "integral":
                raise ValueError("the integral Riesz potential is undefined at n = 0")
            return 0.0
        return n ** (-beta / 2.0)
    # riesz_derivative
    return n ** (beta / 2.0)


def _spectral_multiplier(kind: str, beta: float):
    if kind == "bessel_potential":
        return lambda n: (1.0 + n) ** (-beta / 2.0)
    if kind == "bessel_derivative":
        return lambda n: (1.0 + n) ** (beta / 2.0)
    if kind == "riesz_potential":
        return lambda n: 0.0 if n == 0 else n ** (-beta / 2.0)
    return lambda n: 0.0 if n == 0 else n ** (beta / 2.0)


def apply_fractional(f: HermiteExpansion, spec: FractionalSpec) -> HermiteExpansion:
    """Apply the operator of ``spec`` to an expansion: one multiplier per chaos level."""
    if not isinstance(f, HermiteExpansion):
        raise ValueError("apply_fractional requires a HermiteExpansion input")
    if spec.kind == "riesz_potential" and spec.representation == "integral":
        if abs(f.coefficient((0,) * f.dimension)) > 1e-12:
            raise ValueError(
                "the integral Riesz potential requires a mean-zero input; "
                "apply remove_mean first")

    if spec.representation == "spectral":
        return scale_by_level(f, _spectral_multiplier(spec.kind, spec.beta))

    def multiplier(n):
        if n == 0 and spec.kind.startswith("riesz"):
            return 0.0  # both annihilate the mean; the potential's was checked above
        return _integral_eigenvalue(spec.kind, spec.beta, spec.k, n, spec.tol)

    return scale_by_level(f, multiplier)
