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


def test_nothing_that_can_load_numpy_comes_before_the_blas_pin_block():
    """BLAS reads its pool size once, as numpy loads it: qmu pins it first.

    Before the ``if "numpy" not in sys.modules`` block of qmu/__init__.py may
    stand only the docstring, imports of os and sys, constant assignments and
    function definitions; the block itself must import numpy.
    """
    body = ast.parse((ROOT / "src" / "qmu" / "__init__.py").read_text()).body
    pin = next(i for i, node in enumerate(body) if isinstance(node, ast.If)
               and ast.unparse(node.test) == "'numpy' not in sys.modules")
    for node in body[:pin]:
        if isinstance(node, ast.Import):
            assert {alias.name for alias in node.names} <= {"os", "sys"}, ast.unparse(node)
        elif isinstance(node, ast.Assign):
            ast.literal_eval(node.value)  # raises unless the value is a constant
        else:
            assert isinstance(node, ast.FunctionDef) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            ), ast.unparse(node)
    imported = [alias.name for node in ast.walk(ast.Module(body[:pin + 1], []))
                if isinstance(node, ast.Import) for alias in node.names]
    assert "numpy" in imported
