"""Packaging: console scripts resolve, the runtime needs only numpy, and
the exact root engine not even that."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
