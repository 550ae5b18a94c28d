"""Every third-party module the tests import is a declared dependency.

Reads only ``pyproject.toml`` and the sources under ``tests/``, so it runs
offline and installs nothing. A module's import name is taken as its
distribution name, which holds for every package the tests use.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


def _imported_modules() -> set[str]:
    """Top-level names of every absolute import in the test sources."""
    names = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared() -> set[str]:
    """The runtime and test requirements of pyproject.toml, names only."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = (project.get("dependencies", [])
                    + project.get("optional-dependencies", {}).get("test", []))
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_every_third_party_test_import_is_declared():
    local = {path.stem for path in TESTS.glob("*.py")} | {"metadetector"}
    third_party = {m for m in _imported_modules()
                   if m not in sys.stdlib_module_names and m not in local}
    assert {"numpy", "pytest", "hypothesis"} <= third_party  # the scan sees them
    assert third_party <= _declared(), sorted(third_party - _declared())
