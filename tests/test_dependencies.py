"""Every third-party module the package and its tests import is declared.

The package may import only ``[project].dependencies``, so it never needs a
test-only requirement at run time; the tests may also import the ``test``
extra. Reads only ``pyproject.toml`` and the sources under ``tests/`` and
``src/metadetector/``, so it runs offline and installs nothing. A module's
import name is taken as its distribution name, which holds for every
package imported here.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
PACKAGE = ROOT / "src" / "metadetector"


def _imported_modules(directory: Path) -> set[str]:
    """Top-level names of every absolute import in the sources of ``directory``."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared(with_test_extra: bool) -> set[str]:
    """The runtime, and optionally the test, requirements of pyproject.toml, names only."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project.get("dependencies", [])
    if with_test_extra:
        requirements = requirements + project.get("optional-dependencies", {}).get("test", [])
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def _third_party(directory: Path) -> set[str]:
    local = {path.stem for path in directory.glob("*.py")} | {"metadetector"}
    return {m for m in _imported_modules(directory)
            if m not in sys.stdlib_module_names and m not in local}


def test_every_third_party_test_import_is_declared():
    third_party = _third_party(TESTS)
    assert {"numpy", "pytest", "hypothesis"} <= third_party  # the scan sees them
    declared = _declared(with_test_extra=True)
    assert third_party <= declared, sorted(third_party - declared)


def test_the_package_imports_only_runtime_dependencies():
    third_party = _third_party(PACKAGE)
    assert "numpy" in third_party  # the scan sees it
    declared = _declared(with_test_extra=False)
    assert third_party <= declared, sorted(third_party - declared)
