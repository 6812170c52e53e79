"""No function of the package only hands its own parameters to another call,
and no two functions of the package have one body.

Such a pass-through wrapper, or such a pair of twins, gives one rule a
second name and a second place to change. This walks the syntax tree of
every package module. It flags each non-dunder function whose body, after
the docstring, is a single ``return f(...)`` whose arguments are exactly
the function's own parameters (a method's ``self`` or ``cls`` aside). It
also flags each pair of non-dunder module-level functions or methods
whose bodies after the docstring are the same once each one's parameters
are renamed by position.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "styledl").glob("*.py"))

# name -> why the wrapper stays
ALLOWED = {
    "training.build_model": "the one constructor call: README documents it and "
                            "bench/workloads.py calls it",
}

# twin name -> why it keeps its own body
ALLOWED_TWINS = {
    "layers.Conv1x1.params": "each layer names its own keys; Conv1x1 and Dense have the "
                             "same two by chance, and a shared base would only move them",
    "layers.Dense.params": "the twin of Conv1x1.params, for the same reason",
}


def _own_params(fn: ast.FunctionDef, in_class: bool) -> list[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    if in_class and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _body(fn: ast.FunctionDef) -> list[ast.stmt]:
    """The function's statements after its docstring."""
    stmts = fn.body
    if stmts and isinstance(stmts[0], ast.Expr) and isinstance(stmts[0].value, ast.Constant):
        return stmts[1:]
    return stmts


def _passed_names(call: ast.Call) -> list[str] | None:
    """The parameter names a call passes on, or None if any argument is
    more than a bare name."""
    values = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
    values += [k.value for k in call.keywords]
    if not all(isinstance(v, ast.Name) for v in values):
        return None
    return [v.id for v in values]


def pass_through_wrappers(source: str, module: str) -> list[str]:
    """`module.name` for every pass-through wrapper defined in the source."""
    found = []

    def visit(body, prefix: str, in_class: bool) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, f"{prefix}{node.name}.", False)
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                stmts = _body(node)
                if len(stmts) != 1 or not isinstance(stmts[0], ast.Return):
                    continue
                call = stmts[0].value
                if not isinstance(call, ast.Call):
                    continue
                passed = _passed_names(call)
                params = _own_params(node, in_class)
                if passed is not None and sorted(passed) == sorted(params):
                    found.append(f"{module}.{prefix}{node.name}")

    visit(ast.parse(source).body, "", False)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pass_through_wrappers(path):
    found = pass_through_wrappers(path.read_text(), path.stem)
    assert [name for name in found if name not in ALLOWED] == []


def test_pass_through_wrapper_is_caught():
    source = ('def pooled(features, lam):\n    """Doc."""\n    return score(features, lam)\n\n'
              "def renamed(x, *, k):\n    return other(k=k, x=x)\n\n"
              "def adds(x):\n    return other(x, 1)\n\n"
              "def drops(x, y):\n    return other(x)\n\n"
              "def checks(x):\n    check(x)\n    return other(x)\n\n"
              "class Net:\n"
              "    def forward(self, x):\n        return self.body(x)\n\n"
              "    def __call__(self, x):\n        return self.forward(x)\n\n"
              "    def params(self):\n        return self.gather(self.layers)\n")
    assert pass_through_wrappers(source, "m") == ["m.pooled", "m.renamed", "m.Net.forward"]


def test_allowed_wrappers_still_exist():
    # an entry whose wrapper is gone would silently allow a new one of that name
    found = {name for path in MODULES for name in pass_through_wrappers(path.read_text(), path.stem)}
    assert set(ALLOWED) <= found


def body_twins(sources: dict[str, str]) -> list[list[str]]:
    """Each group of two or more `module.name`s, over every module-level
    function and method of the sources (module name -> source), whose
    bodies after the docstring are one syntax tree once each function's
    parameters are renamed by position."""
    groups: dict[str, list[str]] = {}

    def visit(body, module: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, module, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                stmts = _body(node)
                renamed = {name: f"_{i}" for i, name in enumerate(_own_params(node, False))}
                for sub in (n for stmt in stmts for n in ast.walk(stmt)):
                    if isinstance(sub, ast.Name) and sub.id in renamed:
                        sub.id = renamed[sub.id]
                key = ast.dump(ast.Module(body=stmts, type_ignores=[]))
                groups.setdefault(key, []).append(f"{module}.{prefix}{node.name}")

    for module, source in sources.items():
        visit(ast.parse(source).body, module, "")
    return [names for names in groups.values() if len(names) > 1]


def test_no_two_functions_share_a_body():
    twins = body_twins({path.stem: path.read_text() for path in MODULES})
    assert [names for names in twins if not set(names) <= set(ALLOWED_TWINS)] == []
    # an entry whose twin is gone would silently allow a new one of that name
    assert set(ALLOWED_TWINS) <= {name for names in twins for name in names}


def test_body_twins_are_caught():
    gcn = ('def static(a, f, w):\n    """Static."""\n    return mm(mm(a, f), w).act(0.2)\n\n'
           'def dynamic(adj, feats, weight):\n    """Dynamic."""\n'
           "    return mm(mm(adj, feats), weight).act(0.2)\n\n"
           "def swapped(f, a, w):\n    return mm(mm(a, f), w).act(0.2)\n\n"
           "def slope(a, f, w):\n    return mm(mm(a, f), w).act(0.1)\n\n"
           "def __add__(a, f, w):\n    return mm(mm(a, f), w).act(0.2)\n")
    layers = ("class Dense:\n"
              "    def params(self, prefix):\n        return {prefix: self.w}\n\n"
              "    def keys(self, p):\n        return {p: self.w}\n\n"
              "class Conv:\n"
              "    def params(self, prefix):\n        return {prefix: self.b}\n")
    assert body_twins({"gcn": gcn, "layers": layers}) == [
        ["gcn.static", "gcn.dynamic"], ["layers.Dense.params", "layers.Dense.keys"]]
