"""Every name a zetakit module imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "zetakit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\n"
                     "x = np.pi + len(sep)\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "path")]
