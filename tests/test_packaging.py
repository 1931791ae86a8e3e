"""Console scripts declared in pyproject.toml point at importable callables."""

import importlib
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
