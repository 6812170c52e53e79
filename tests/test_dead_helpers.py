"""Every private module-level name of the package is read somewhere in it,
and every public `Tensor` method is read by the package or its tools.

A `_`-prefixed function, class or constant at module level is an internal
helper; once its last caller is gone it is dead code that still has to be
read and kept up. This walks the syntax tree of every package module and
flags each such name that no module of the package reads, either as a bare
name or as a module attribute (``tensor._im2col``). Dunder names such as
``__all__`` are not helpers and are skipped.

A public `Tensor` method that only the tests call is dead the same way. It
counts as read when `src/`, `bench/` or `scripts/` names it as an
attribute, a bare name or a string constant: the benchmark tracer patches
methods by name (``("reshape", "shape")``).

So is a public module-level function or class of the package that nothing
in `src/`, `bench/` or `scripts/` reads by those three ways or imports: an
import counts, also under another name (``from .fusion import
pooled_scores as emotion_distribution``), but a string in an ``__all__``
list does not, since listing a name exports it without using it.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "styledl").glob("*.py"))
USERS = sorted(p for d in ("src", "bench", "scripts") for p in (ROOT / d).rglob("*.py"))


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


def _reads(tree: ast.Module, strings: bool = False) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _strings_outside_all(tree: ast.Module) -> set[str]:
    """The string constants of a module, except those of an ``__all__ =``
    list, which export names without using them."""
    listing = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
               for node in ast.walk(stmt.value)}
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in listing}


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


def unread_public_methods(class_name: str, sources: dict[str, str]) -> list[str]:
    """`Class.method` for every public method (properties included) of the
    class defined in `sources` that no source reads as an attribute, a
    name or a string constant."""
    trees = [ast.parse(source) for source in sources.values()]
    read = set().union(*(_reads(tree, strings=True) for tree in trees))
    methods = [node.name for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name == class_name
               for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")]
    return [f"{class_name}.{name}" for name in methods if name not in read]


def test_no_unread_tensor_methods():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in USERS}
    assert unread_public_methods("Tensor", sources) == []


def test_unread_public_method_is_caught():
    sources = {
        "a": ("class Tensor:\n"
              "    def used(self):\n        return self.patched\n"
              "    @property\n    def shape(self):\n        return ()\n"
              "    def patched(self):\n        return 1\n"
              "    def named(self):\n        return 2\n"
              "    def dead(self):\n        return 3\n"
              "    def _private(self):\n        return 4\n"),
        "b": "import a\nPATCH = ('named',)\nprint(a.Tensor().used(), a.Tensor().shape)\n",
    }
    assert unread_public_methods("Tensor", sources) == ["Tensor.dead"]


def unread_public_names(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """`module.name` for every public module-level function or class of
    the `package` sources that no `users` source reads, imports or names
    in a string outside ``__all__``."""
    read = set()
    for source in users.values():
        tree = ast.parse(source)
        read |= _reads(tree) | _strings_outside_all(tree)
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    return [f"{module}.{node.name}" for module, source in package.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_no_unread_public_names():
    package = {p.stem: p.read_text() for p in MODULES}
    users = {str(p.relative_to(ROOT)): p.read_text() for p in USERS}
    assert unread_public_names(package, users) == []


def test_unread_public_name_is_caught():
    package = {
        "a": ("__all__ = ['listed', 'used']\n\n"
              "def used():\n    return 1\n\n"
              "def aliased():\n    return 2\n\n"
              "def patched():\n    return 3\n\n"
              "def listed():\n    return 4\n\n"
              "class Unread:\n    pass\n\n"
              "def _private():\n    return 5\n"),
    }
    users = dict(package, b="from a import aliased as other\nPATCH = ('patched',)\nprint(other())\n",
                 c="import a\nprint(a.used())\n")
    assert unread_public_names(package, users) == ["a.listed", "a.Unread"]
