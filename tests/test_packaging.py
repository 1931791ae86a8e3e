"""Packaging: console scripts resolve, and the runtime needs only numpy."""

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


def test_runtime_needs_no_test_extras():
    # networkx, sympy and hypothesis are test-only: every module imports
    # with each of them blocked
    code = ("import sys\n"
            "for name in ('networkx', 'sympy', 'hypothesis'):\n"
            "    sys.modules[name] = None\n"
            "import specrad.connectivity, specrad.exactroots, specrad.graphs, "
            "specrad.quotient, specrad.spectral\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PYPROJECT.parent / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
