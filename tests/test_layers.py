"""Modules of the package import only from layers below their own; they and the tests read every name they import.

The package root exports a fixed list of names, and every name the benchmark
workloads read from it is among them.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import wondermono

LAYERS = ("rootsys", "weyl", "paths", "demazure", "orbits", "monomials", "verify", "cli")
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wondermono"
# each module of the package by its name, each test module by tests/<name>
SOURCES = {name: PACKAGE / f"{name}.py" for name in LAYERS + ("__main__",)} | {
    f"tests/{path.stem}": path for path in sorted((ROOT / "tests").glob("*.py"))
}


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


@pytest.mark.parametrize("name", SOURCES)
def test_every_imported_name_is_read(name):
    tree = ast.parse(SOURCES[name].read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == [], f"{name} imports names it never reads"


PUBLIC = [
    "CheckResult",
    "GradedTable",
    "LSPath",
    "MonomialIndex",
    "OrbitLabel",
    "OrbitPoset",
    "PathPair",
    "RootSystem",
    "RootSystemError",
    "SchubertPair",
    "WeylElement",
    "WeylGroup",
    "basis_indices",
    "build",
    "build_poset",
    "char_dim",
    "closure_leq",
    "demazure_character",
    "dimension",
    "dominant_below",
    "from_name",
    "generate_pairs",
    "generate_paths",
    "graded_counts",
    "initial_direction",
    "is_dominant",
    "is_standard_on_closure",
    "nonstandard_components",
    "nonstandard_orbits",
    "root_lower",
    "run_suite",
    "schubert_pairs",
    "stratum_components",
    "weyl_dim",
    "weyl_group",
]


def test_public_names_are_exactly_these():
    assert sorted(wondermono.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(wondermono, name)] == []


def test_benchmark_workloads_read_only_exported_names():
    # read as source, not imported: the names each workload reads as wm.<name> or self.wm.<name>
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "wm" or isinstance(base, ast.Attribute) and base.attr == "wm":
                read.add(node.attr)
    assert read, "the workloads read no wm.<name>"
    assert sorted(read - set(wondermono.__all__)) == []


def test_the_command_line_imports_no_csv_dataclasses_or_inspect():
    # a fresh isolated interpreter without site, so nothing but the package's own imports can load them;
    # csv is imported by the CSV writer alone, when a command writes CSV
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import wondermono.cli;"
        " print(sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
