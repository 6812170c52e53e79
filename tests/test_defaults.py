"""No parameter of the package has a default that every caller overrides.

Such a default repeats a value whose home is elsewhere (a `TrainConfig`
field, the key table of `EmotionDistributionNet.parameters()`, a CLI
option) and gives it a second place to change. This walks the syntax tree
of every package module for the parameters with a default of each
function, method and constructor. It matches each call in `src/`, `bench/`
and `scripts/` to them by name: ``f(...)`` and ``x.f(...)`` call each
function or method named ``f``, and ``C(...)`` or ``m.C(...)`` calls the
constructor of class ``C``. A parameter is flagged when at least one call
matches and every matching call passes it, by position or by keyword. A
position at or past a ``*args``, or a name left to a ``**kwargs``, does
not count as passed. Matching by name alone over-counts calls (a numpy
array's ``x.sum()`` matches ``Tensor.sum``); that can only hide a default,
never flag one that some call leaves out.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "styledl").glob("*.py"))
USERS = sorted(p for d in ("src", "bench", "scripts") for p in (ROOT / d).rglob("*.py"))

# `module.qualified.name:parameter` -> why the default stays. The lint needs
# only the entries it flags; the others say why a default that looks like a
# repeat is the value's one home.
ALLOWED = {
    "metrics.evaluate_metrics:normalize": "the LDL literature reports raw Clark and Canberra, "
                                          "so normalize=False stays one argument away",
    "hoa.AdversaryHead.__init__:hidden": "the default is the width's only home",
    "hoa.AdversaryHead.__init__:out_dim": "the default is the width's only home",
    "gcn.StylisticGcn.__init__:hidden": "the default is the width's only home",
    "style.gram:normalize": "the c04 acceptance gate calls gram(x) with no flag",
    "style.InterLayerCorrelation.__init__:in_channels": "the c02 acceptance gate builds the "
                                                        "module with no channel count",
    "style.InterLayerCorrelation.__init__:widths": "the c02 acceptance gate passes only widths, "
                                                   "and the default names STYLE_WIDTHS",
    "tensor.SGD.__init__:momentum": "SGD is exported for use without a config, and "
                                    "SGD(params, lr) is plain gradient descent",
    "tensor.SGD.__init__:weight_decay": "README's library example leaves it out",
    "tensor.Tensor.backward:on_leaf": "the plain loss.backward() of README and the gradient "
                                      "tests; train() alone applies SGD during the walk",
}


def _defaulted(fn: ast.FunctionDef) -> tuple[list[str], list[str]]:
    """(positional parameters after self, those of them and of the
    keyword-only ones that have a default)."""
    a = fn.args
    pos = [p.arg for p in a.posonlyargs + a.args]
    named = pos[len(pos) - len(a.defaults):] if a.defaults else []
    named += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return pos, named


def defaulted_parameters(sources: dict[str, str]) -> dict[str, list[tuple[str, list[str], str]]]:
    """Call name -> (qualified name, positional parameters a call fills
    from its first argument on, defaulted parameter) for every defaulted
    parameter of the sources (module name -> source)."""
    found: dict[str, list[tuple[str, list[str], str]]] = {}

    def visit(body, module: str, prefix: str, cls: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, module, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, module, f"{prefix}{node.name}.", None)
                pos, named = _defaulted(node)
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                if cls is not None and not static:
                    pos = pos[1:]
                call = cls if node.name == "__init__" and cls is not None else node.name
                for param in named:
                    found.setdefault(call, []).append(
                        (f"{module}.{prefix}{node.name}", pos, param))

    for module, source in sources.items():
        visit(ast.parse(source).body, module, "", None)
    return found


def _passes(call: ast.Call, pos: list[str], param: str) -> bool:
    if any(k.arg == param for k in call.keywords):
        return True
    fixed = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            break
        fixed += 1
    return param in pos[:fixed]


def overridden_defaults(sources: dict[str, str], users: list[str]) -> list[str]:
    """`qualified.name:parameter` for each defaulted parameter of the
    sources that some call in the users' sources reaches and every such
    call passes."""
    defaults = defaulted_parameters(sources)
    calls: dict[str, list[ast.Call]] = {}
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in defaults:
                    calls.setdefault(name, []).append(node)
    flagged = []
    for name, entries in defaults.items():
        for qualified, pos, param in entries:
            reaching = calls.get(name, [])
            if reaching and all(_passes(c, pos, param) for c in reaching):
                flagged.append(f"{qualified}:{param}")
    return sorted(flagged)


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in MODULES}


def test_no_default_that_every_caller_overrides():
    found = overridden_defaults(_package_sources(), [p.read_text() for p in USERS])
    assert [name for name in found if name not in ALLOWED] == []


def test_overridden_default_is_caught():
    package = {"m": ("def ranked(values, lower=True):\n    pass\n\n"
                     "def loaded(path, size=None):\n    pass\n\n"
                     "def unused(x, k=5):\n    pass\n\n"
                     "def spread(x, k=5):\n    pass\n\n"
                     "class Head:\n"
                     "    def __init__(self, rng, n, *, style=None):\n        pass\n\n"
                     "    def params(self, prefix='head'):\n        pass\n\n"
                     "    @staticmethod\n"
                     "    def make(n, width=4):\n        pass\n")}
    users = ["ranked(v, False)\nranked(v, lower=True)\n",
             "import m\nm.loaded(p)\nm.loaded(p, size=8)\n",
             "spread(*args)\nspread(x, **kw)\n",
             "h = Head(rng, 3, style=2)\nh.params('a')\nm.Head.make(2, 4)\n"]
    assert overridden_defaults(package, users) == [
        "m.Head.__init__:style", "m.Head.make:width", "m.Head.params:prefix", "m.ranked:lower"]


def test_allowed_defaults_still_exist():
    # an entry whose default is gone would silently allow a new one of that name
    defaults = defaulted_parameters(_package_sources())
    present = {f"{qualified}:{param}" for entries in defaults.values()
               for qualified, _, param in entries}
    assert set(ALLOWED) <= present
