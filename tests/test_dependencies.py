"""The runtime dependencies declared in pyproject.toml are exactly the
third-party modules the library imports."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "elastodisk"
# distributions whose top-level module has another name
MODULE_OF = {"pyyaml": "yaml"}


def declared_modules() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[\w.-]+", req).group() for req in project["dependencies"])
    return {MODULE_OF.get(name.lower(), name.lower()) for name in names}


def imported_modules() -> set[str]:
    """Top-level modules of every absolute import under the package."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_runtime_dependencies_are_the_third_party_imports():
    third_party = {
        m for m in imported_modules()
        if m not in sys.stdlib_module_names and m != "elastodisk"
    }
    assert third_party == declared_modules()
