"""Bessel/Riesz fractional integrals and derivatives on Hermite expansions.

Each operator exists in two representations that are kept as first-class
citizens:

* ``spectral``: multiplier action on chaos level n,
    bessel_potential  (1+n)^{-beta/2}     riesz_potential  n^{-beta/2} (0 at n=0)
    bessel_derivative (1+n)^{+beta/2}     riesz_derivative n^{+beta/2}
* ``integral``: the subordinated s-integral of P_s (for the derivatives, of
  (P_s - I)^k) against s^{+-beta-1}, computed numerically as one s-integral
  per operator whose payload holds one component per chaos level of the
  input.  For the Riesz pair this reproduces the spectral multipliers; for
  the Bessel pair it yields (1 + sqrt(n))^{-+beta} instead, a genuinely
  different operator, and both are reported side by side.

Both Riesz operators annihilate the mean, level 0, in both representations;
the multipliers never evaluate n^{-+beta/2} or the s-integral there.

The derivative integrands use the k-th power (P_s - I)^k, whose symbol on
a level with rate a is (e^{-a s} - 1)^k.  It is evaluated through expm1,
free of the cancellation that a binomial sum of exponentials suffers at
small s, and in log space together with s^{-beta-1}.  Against s^{-beta-1}
it behaves like (-a)^k s^{k-beta-1} as s -> 0, which for beta just below k
is still not negligible where the half-line rule must stop; so the
quadrature takes the difference from the model (-a s)^k e^{-3 k a s / 2},
whose integral is closed-form, and the remainder behaves like s^{k-beta}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hermite import HermiteExpansion, remove_mean, scale_by_level
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

    Computed by ``_difference_integral`` at rate 1.  Negative for odd k.
    """
    if not 0 < beta < k:
        raise ValueError("c^k_beta requires 0 < beta < k")
    return float(_difference_integral(np.ones(1), beta, k, 1e-12)[0])


def _difference_integral(a: np.ndarray, beta: float, k: int, tol: float) -> np.ndarray:
    """∫ (e^{-a s} - 1)^k s^{-beta-1} ds (A,) for rates a > 0, 0 < beta < k.

    The half-line rule integrates the difference from (-a s)^k e^{-c s},
    c = 3 k a / 2, to the absolute ``tol``; that model's integral
    (-a)^k Gamma(k - beta) c^{beta-k} comes back in closed form.  The model
    rate c = k a / 2 would also cancel the first-order term, but its slower
    decay costs the rule one more halving at every beta; with c = 3 k a / 2
    none of the beta tried needs more nodes than the plain integrand.
    """
    c = 1.5 * k * a
    model = (-a) ** k * math.gamma(k - beta) * c ** (beta - k)
    return integrate_halfline(_difference_integrand(a, beta, k), tol=tol) + model


def _difference_integrand(a: np.ndarray, beta: float, k: int):
    """s (S,) -> ((e^{-a s} - 1)^k - (-a s)^k e^{-3 k a s / 2}) s^{-beta-1}
    (S, A), the symbol of (P_s - I)^k on levels with rates a > 0 against
    s^{-beta-1}, less its model.

    With z = a s, 1 - e^{-z} = z e^{-z/2} sinh(z/2) / (z/2), so the
    difference is (1 - e^{-z})^k (1 - e^{-k m}) times (-1)^k, free of
    cancellation, with m = z + log(sinh(z/2) / (z/2))
    = 3z/2 + log(1 - e^{-z}) - log z, or below z = 1/10, where that sum
    cancels, its series z + v/6 - v^2/180 + v^3/2835 - v^4/37800,
    v = z^2/4 (to 1e-16 relative).  The first factor is formed in log space,
    exp(k log(-expm1(-z)) - (beta+1) log s): the factors alone overflow at
    the tiny s the half-line rule reaches, and expm1 keeps (e^{-a s} - 1)
    free of cancellation there.
    """
    log_a = np.log(a)

    def integrand(s):
        s = s[:, None]
        log_s = np.log(s)
        z = a * s
        log_diff = np.log(-np.expm1(-z))
        m = 1.5 * z + log_diff - (log_a + log_s)
        small = z < 0.1
        zs = z[small]
        v = 0.25 * zs * zs
        m[small] = zs + v * (1.0 / 6.0 - v * (1.0 / 180.0 - v * (1.0 / 2835.0 - v / 37800.0)))
        out = np.exp(k * log_diff - (beta + 1.0) * log_s)
        # (e^{-z} - 1)^k = (-1)^k (1 - e^{-z})^k, and expm1(-k m) = -(1 - e^{-k m})
        out *= np.expm1(-k * m)
        return out if k % 2 else -out

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
def _integral_eigenvalue(kind: str, beta: float, k: int, levels: tuple, tol: float) -> np.ndarray:
    """Numerical action of the integral representation on the chaos levels
    ``levels``, one read-only array.

    P_s acts on level n by e^{-a s} with rate a = sqrt(n) for the Riesz
    kinds and a = 1 + sqrt(n) for the Bessel kinds.  One s-integral carries
    every level with a > 0 as a payload component: its stopping rule holds
    each level to the absolute ``tol`` it would meet alone, and its
    truncation is the union of theirs.  The Riesz derivative is 0 at a = 0;
    the Riesz potential is undefined there.
    """
    n = np.asarray(levels, dtype=float)
    a = 1.0 + np.sqrt(n) if kind.startswith("bessel") else np.sqrt(n)
    out = np.zeros(a.shape)
    live = a > 0.0
    if kind.endswith("potential"):
        if not live.all():
            raise ValueError("the integral Riesz potential is undefined on the mean "
                             "component; remove the mean first")

        def integrand(s):
            s = s[:, None]
            return np.exp((beta - 1.0) * np.log(s) - a * s)

        out[:] = integrate_halfline(integrand, tol=tol) / math.gamma(beta)
    elif live.any():
        out[live] = _difference_integral(a[live], beta, k, tol) / c_beta_constant(beta, k)
    out.setflags(write=False)
    return out


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
    """Levels (L,) -> the spectral multiplier (L,) of ``kind``."""
    power = beta / 2.0 if kind.endswith("derivative") else -beta / 2.0
    if kind.startswith("bessel"):
        return lambda n: (1.0 + n) ** power

    def riesz(n):
        # 0 on the mean, where n^{-beta/2} would divide by zero
        out = np.zeros(n.shape)
        out[n > 0] = n[n > 0] ** power
        return out

    return riesz


def apply_fractional(f: HermiteExpansion, spec: FractionalSpec) -> HermiteExpansion:
    """Apply the operator of ``spec`` to an expansion: one multiplier over
    its chaos levels, for the integral representation one s-integral."""
    if not isinstance(f, HermiteExpansion):
        raise ValueError("apply_fractional requires a HermiteExpansion input")
    if spec.representation == "spectral":
        return scale_by_level(f, _spectral_multiplier(spec.kind, spec.beta))

    if spec.kind == "riesz_potential":
        if abs(f.coefficient((0,) * f.dimension)) > 1e-12:
            raise ValueError(
                "the integral Riesz potential requires a mean-zero input; "
                "apply remove_mean first")
        f = remove_mean(f)  # 0 on the mean, where the s-integral diverges
    return scale_by_level(f, lambda n: _integral_eigenvalue(
        spec.kind, spec.beta, spec.k, tuple(n.tolist()), spec.tol))
