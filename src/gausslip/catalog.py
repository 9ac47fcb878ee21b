"""Named test functions with known structure.

Grammar:
    const:<value>        constant function                      (any d, default 1)
    cos:<a>              cos(a * x_1)                           (d = 1, bounded)
    gauss-bump           exp(-|x|^2)                            (d = 1, bounded)
    smooth-step          (1 + erf(x_1)) / 2                     (d = 1, bounded)
    hermite:<i>[,<j>..]  orthonormal Hermite polynomial h_nu    (d = len, unbounded)
    expansion:<path>     truncated expansion from a JSON file   (d from file)

Every callable takes point batches of shape (n, d) and returns shape (n,).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError
from .hermite import check_multi_index, hermite_eval, load_expansion, as_function

_GRAMMAR = ("const:<value> | cos:<a> | gauss-bump | smooth-step | "
            "hermite:<i>[,<j>...] | expansion:<path>")

_ERF = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dimension: int
    bounded: bool


def catalog_function(name: str):
    """Resolve a catalog name to (CatalogEntry, callable).

    Unknown names raise CatalogError echoing the grammar.
    """
    head, _, arg = name.partition(":")
    if head == "const":
        try:
            c = float(arg)
        except ValueError:
            raise CatalogError(f"bad constant {arg!r} in {name!r}; grammar: {_GRAMMAR}")
        entry = CatalogEntry(name=name, dimension=1, bounded=True)
        return entry, lambda x: np.full(np.asarray(x).shape[0], c, dtype=float)
    if head == "cos":
        try:
            a = float(arg)
        except ValueError:
            raise CatalogError(f"bad frequency {arg!r} in {name!r}; grammar: {_GRAMMAR}")
        entry = CatalogEntry(name=name, dimension=1, bounded=True)
        return entry, lambda x: np.cos(a * np.asarray(x, dtype=float)[..., 0])
    if name == "gauss-bump":
        entry = CatalogEntry(name=name, dimension=1, bounded=True)
        return entry, lambda x: np.exp(-np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))
    if name == "smooth-step":
        entry = CatalogEntry(name=name, dimension=1, bounded=True)
        return entry, lambda x: 0.5 * (1.0 + _ERF(np.asarray(x, dtype=float)[..., 0]))
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
        except OSError as exc:
            raise CatalogError(f"cannot read expansion file {arg!r}: {exc}")
        entry = CatalogEntry(name=name, dimension=e.dimension, bounded=False)
        return entry, as_function(e)
    raise CatalogError(f"unknown catalog name {name!r}; grammar: {_GRAMMAR}")


#: bounded functions used by default in the Lipschitz/boundedness suites
DEFAULT_SUITE = ("const:1", "cos:1", "cos:2", "gauss-bump", "smooth-step")
