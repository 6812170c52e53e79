"""No function of the package only hands its own parameters to another call.

Such a pass-through wrapper gives one rule a second name and a second
place to change. This walks the syntax tree of every package module and
flags each non-dunder function whose body, after the docstring, is a
single ``return f(...)`` whose arguments are exactly the function's own
parameters (a method's ``self`` or ``cls`` aside).
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


def _own_params(fn: ast.FunctionDef, in_class: bool) -> list[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    if in_class and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


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
                stmts = node.body
                if stmts and isinstance(stmts[0], ast.Expr) and isinstance(stmts[0].value, ast.Constant):
                    stmts = stmts[1:]  # the docstring
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
