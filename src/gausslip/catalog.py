"""Named test functions with known structure.

Grammar:
    const:<value>        constant function, <value> finite      (d = 1, bounded)
    cos:<a>              cos(a * x_1), <a> finite               (d = 1, bounded)
    gauss-bump           exp(-|x|^2)                            (d = 1, bounded)
    smooth-step          (1 + erf(x_1)) / 2                     (d = 1, bounded)
    hermite:<i>[,<j>..]  orthonormal Hermite polynomial h_nu    (d = len, unbounded)
    expansion:<path>     truncated expansion from a JSON file   (d from file)

Every callable keeps the point contract of ``hermite.pointwise``: a point
batch of shape (n, d) gives shape (n,), a single point a float, and a
non-finite coordinate raises ``ValueError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError
from .hermite import as_function, check_multi_index, hermite_eval, load_expansion, pointwise

_GRAMMAR = ("const:<value> | cos:<a> | gauss-bump | smooth-step | "
            "hermite:<i>[,<j>...] | expansion:<path>")

_ERF = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dimension: int
    bounded: bool


def _finite_parameter(what: str, arg: str, name: str) -> float:
    """``arg`` as a finite float, or CatalogError echoing the grammar."""
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CatalogError(f"bad {what} {arg!r} in {name!r} (must be a finite number); "
                           f"grammar: {_GRAMMAR}")
    return value


def catalog_function(name: str):
    """Resolve a catalog name to (CatalogEntry, callable).

    Unknown names, and parameters that do not parse or are not finite,
    raise CatalogError echoing the grammar.
    """
    head, _, arg = name.partition(":")
    if head == "const":
        c = _finite_parameter("constant", arg, name)
        entry = CatalogEntry(name=name, dimension=1, bounded=True)
        return entry, pointwise(1, lambda x: np.full(x.shape[0], c))
    if head == "cos":
        a = _finite_parameter("frequency", arg, name)
        entry = CatalogEntry(name=name, dimension=1, bounded=True)
        return entry, pointwise(1, lambda x: np.cos(a * x[:, 0]))
    if name == "gauss-bump":
        entry = CatalogEntry(name=name, dimension=1, bounded=True)
        return entry, pointwise(1, lambda x: np.exp(-x[:, 0] ** 2))
    if name == "smooth-step":
        entry = CatalogEntry(name=name, dimension=1, bounded=True)
        return entry, pointwise(1, lambda x: 0.5 * (1.0 + _ERF(x[:, 0])))
    if head == "hermite":
        try:
            nu = check_multi_index(tuple(int(v) for v in arg.split(",")))
        except (ValueError, TypeError):
            raise CatalogError(f"bad multi-index {arg!r} in {name!r}; grammar: {_GRAMMAR}")
        entry = CatalogEntry(name=name, dimension=len(nu), bounded=(sum(nu) == 0))
        return entry, lambda x: hermite_eval(nu, x)
    if head == "expansion":
        if not arg:
            raise CatalogError(f"missing path in {name!r}; grammar: {_GRAMMAR}")
        try:
            e = load_expansion(arg)
        except (OSError, ValueError) as exc:
            raise CatalogError(f"cannot read expansion file {arg!r}: {exc}")
        entry = CatalogEntry(name=name, dimension=e.dimension, bounded=False)
        return entry, as_function(e)
    raise CatalogError(f"unknown catalog name {name!r}; grammar: {_GRAMMAR}")


#: bounded functions used by default in the Lipschitz/boundedness suites
DEFAULT_SUITE = ("const:1", "cos:1", "cos:2", "gauss-bump", "smooth-step")
