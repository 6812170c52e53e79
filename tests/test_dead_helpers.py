"""Every private module-level name of the package is read somewhere in it.

A `_`-prefixed function, class or constant at module level is an internal
helper; once its last caller is gone it is dead code that still has to be
read and kept up. This walks the syntax tree of every package module and
flags each such name that no module of the package reads, either as a bare
name or as a module attribute (``tensor._im2col``). Dunder names such as
``__all__`` are not helpers and are skipped.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "styledl").glob("*.py"))


def _private_defs(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for every private module-level name that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _private_defs(tree) if name not in read]


def test_no_unread_private_names():
    assert unread_private_names({p.stem: p.read_text() for p in MODULES}) == []


def test_unread_private_name_is_caught():
    sources = {
        "a": ("import b\n__all__ = ['f']\n_LIMIT = 3\n_orphan: int = 4\n\n"
              "def _used():\n    return _LIMIT\n\n"
              "def _dead():\n    return 1\n\n"
              "class _Gone:\n    pass\n\n"
              "def f():\n    return _used() + b._shared()\n"),
        "b": "def _shared():\n    return 2\n\ndef _also_dead(x):\n    x._also_dead = 1\n",
    }
    assert unread_private_names(sources) == ["a._orphan", "a._dead", "a._Gone", "b._also_dead"]
