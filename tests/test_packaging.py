"""Packaging: console scripts resolve, the runtime needs only numpy, and
the exact root engine not even that; each module exports exactly its
public definitions, and no module imports a name it never uses."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SOURCES = sorted((PYPROJECT.parent / "src" / "specrad").glob("*.py"))
# the public constants, which no def or class statement introduces
CONSTANTS = {"CHARPOLY_PRIMES", "RESIDUAL_FACTOR"}


def test_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def _import_blocking(blocked, modules):
    """Import `modules` in a fresh interpreter with `blocked` unimportable."""
    code = (f"import sys\n"
            f"for name in {blocked!r}:\n"
            f"    sys.modules[name] = None\n"
            f"import {', '.join(modules)}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PYPROJECT.parent / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_runtime_needs_no_test_extras():
    # networkx, sympy and hypothesis are test-only: every module imports
    # with each of them blocked
    _import_blocking(("networkx", "sympy", "hypothesis"),
                     ("specrad.connectivity", "specrad.exactroots", "specrad.graphs",
                      "specrad.quotient", "specrad.spectral"))


def test_exactroots_needs_no_numpy():
    # the exact root engine is integer-only; floats only seed its brackets
    _import_blocking(("numpy",), ("specrad.exactroots",))


def test_graphs_and_connectivity_need_no_numpy():
    # both work on bitset rows; only Graph.adjacency_matrix reaches numpy,
    # and only when it is called
    _import_blocking(("numpy",), ("specrad.graphs", "specrad.connectivity"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_all_lists_the_public_definitions(path):
    tree = ast.parse(path.read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    assigned = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    exported = ast.literal_eval(assigned["__all__"])
    assert len(exported) == len(set(exported))
    assert set(exported) == defined | (CONSTANTS & assigned.keys())


def _unused_imports(path):
    """Names an import statement in `path` binds and no expression reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "path", SOURCES + sorted(Path(__file__).resolve().parent.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
