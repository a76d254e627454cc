"""The third-party packages that ``src/qmu`` imports are its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    """Package names in ``[project] dependencies`` of pyproject.toml.

    Read without ``tomllib``, which Python 3.10 lacks: the array, taken from
    the ``[project]`` table, is a Python literal too.
    """
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    array = re.search(r"^dependencies\s*=\s*(\[.*?\])", project, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in ast.literal_eval(array)}


def imported_packages() -> set[str]:
    """Top-level names of every absolute import in src/qmu, lazy ones included."""
    names = set()
    for path in (ROOT / "src" / "qmu").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_exactly_the_declared_dependencies():
    third_party = imported_packages() - set(sys.stdlib_module_names) - {"qmu"}
    assert sorted(third_party) == sorted(declared_dependencies())
