"""Modules of the package import only from layers below their own."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

LAYERS = ("rootsys", "weyl", "paths", "demazure", "orbits", "monomials", "verify", "cli")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wondermono"


def package_imports(tree: ast.Module) -> set[str]:
    """Names of the package modules a module imports, at any depth of its code."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wondermono."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("wondermono."))
    return out


def test_every_module_is_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_point_down_the_chain(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    rank = LAYERS.index(name)
    upward = sorted(m for m in package_imports(tree) if LAYERS.index(m) >= rank)
    assert upward == [], f"{name} imports {upward}, which are not below it in {' -> '.join(LAYERS)}"
