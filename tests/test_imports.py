"""Every module of the package and of the tests uses each name it imports.

No linter runs on this repository, so this walks the syntax tree instead:
a name bound by ``import`` or ``from ... import`` must be read somewhere
else in the module. ``__init__.py`` files re-export by design and are
skipped, as are names listed in a module's ``__all__``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "styledl", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation]
    return []


def unused_imports(source: str) -> list[str]:
    """`line N: name` for every imported name the module never reads."""
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
        for note in _annotations(node):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                # a quoted annotation such as -> "Tensor" reads the names inside it
                used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("import os\nimport numpy as np\nfrom typing import Any, List\n"
              "__all__ = ['List']\n\n"
              "def f(x: 'Any') -> 'os.PathLike':\n    \"\"\"np, Any\"\"\"\n    return 1\n")
    assert unused_imports(source) == ["line 2: np"]
