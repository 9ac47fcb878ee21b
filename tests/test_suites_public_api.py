"""The verification suites call the library through its public API only.

A suite row that reaches into a ``_``-prefixed helper of another module
checks that helper, not the operator a user calls, and pins the helper's
signature; this test keeps that boundary from coming back.
"""
import ast
from pathlib import Path

from gausslip import suites

SOURCE = Path(suites.__file__)


def _private_uses(tree: ast.AST) -> list:
    """``_``-prefixed names that suites.py imports from, or reads off, another
    gausslip module, as (line, name)."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gausslip")):
            for alias in node.names:
                if node.module in (None, "gausslip"):  # the name is a module
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gausslip"):
                    modules.add(alias.asname or alias.name.partition(".")[0])
                    if any(part.startswith("_") for part in alias.name.split(".")):
                        found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_suites_use_no_private_library_name():
    assert _private_uses(ast.parse(SOURCE.read_text(encoding="utf-8"))) == []


def test_checker_sees_private_imports_and_attributes():
    source = ("from . import fractional as frac\n"
              "from .semigroup import _subordinate, ph_apply\n"
              "import gausslip.hermite\n"
              "x = frac._integral_eigenvalue('riesz_potential', 0.5, 1, (1,), 1e-9)\n"
              "y = gausslip.hermite._index_table(1, 2)\n"
              "z = frac.apply_fractional, frac.__name__\n")
    assert _private_uses(ast.parse(source)) == [
        (2, "_subordinate"),
        (4, "frac._integral_eigenvalue"),
        (5, "gausslip.hermite._index_table")]
