"""Every module of the package uses each name it imports, and every
function, class and method it defines is referenced by the package itself
or by the benchmark in `perfbench`, in its code or by the name its tracer
looks up (`tracer.TRACED`).  The tests do not count as readers, so the
package holds only what a workload runs.

The package root is left out of the import check: it imports the error
classes to re-export them.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyvem"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where else a definition of the package may be referenced
READERS = ("perfbench",)
TRACER = ROOT / "perfbench" / "tracer.py"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n") \
        == [(2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _definitions(tree):
    """(name, node) of each top-level function and class of a module and of
    each method of its classes, dunder methods left out."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*funcs, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not (item.name.startswith("__")
                                                    and item.name.endswith("__")):
                    yield item.name, item


def _references(tree) -> Counter:
    """How often each name is referenced: as a `Name`, as the attribute of an
    `Attribute` or as an imported name."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def _dead_definitions(package: list, readers: list, looked_up=()) -> list:
    """The names defined in the `package` sources that no source of
    `package` or `readers` references outside their own definition, and
    that are not among the names `looked_up` by string."""
    trees = [ast.parse(source) for source in package]
    refs = sum(map(_references, trees + [ast.parse(source) for source in readers]),
               Counter(looked_up))
    return sorted(name for tree in trees for name, node in _definitions(tree)
                  if refs[name] <= _references(node)[name])


def test_the_check_sees_a_dead_definition():
    package = ["def spectrum(a):\n    return spectrum(a[1:])\n"
               "def energy(a):\n    return a\n"
               "class Pack:\n    def __init__(self):\n        pass\n"
               "    def rank(self):\n        pass\n"
               "    def size(self):\n        pass\n"]
    readers = ["from m import energy\nPack().size()\n"]
    assert _dead_definitions(package, readers) == ["rank", "spectrum"]
    assert _dead_definitions(package, readers, ["rank"]) == ["spectrum"]


def _traced_names() -> list:
    """The function of each (module, function, span) entry of the tracer's
    TRACED list, which it looks up with `getattr`."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    return [func for _, func, _ in ast.literal_eval(traced)]


def test_every_definition_is_referenced():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text(encoding="utf-8")
               for d in READERS for p in sorted((ROOT / d).rglob("*.py"))]
    assert "polygon_quadrature" in _traced_names()
    assert _dead_definitions(package, readers, _traced_names()) == []
