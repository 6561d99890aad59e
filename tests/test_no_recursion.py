"""No function in the package calls itself, directly or through others.

Deep inputs (long sums, deep parentheses, long runs of unary minus) must
never hit the interpreter's recursion limit, so every tree walk goes
through the explicit stack of `expr.postorder`.  This guard parses each
module, builds the call graph of the functions and methods defined in
the package from their `name(...)` and `self.name(...)` calls, and fails
on any cycle.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "enclosures"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functions(tree: ast.Module):
    """(qualified name, class name or None, def node) for each top-level
    function, the helpers nested in it, and each method of a top-level class."""
    out = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, DEFS):
                    out.append((f"{top.name}.{item.name}", top.name, item))
        elif isinstance(top, DEFS):
            out.append((top.name, None, top))
            # Nested helpers are graph nodes of their own, keyed by bare name.
            for inner in ast.walk(top):
                if inner is not top and isinstance(inner, DEFS):
                    out.append((inner.name, None, inner))
    return out


def call_graph(root: Path) -> dict[str, set[str]]:
    """Edges "module.function" -> callees defined somewhere in the package."""
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in root.glob("*.py")
    }
    defined = {mod: _functions(tree) for mod, tree in modules.items()}
    names = {mod: {qual for qual, _, _ in defs} for mod, defs in defined.items()}
    graph: dict[str, set[str]] = {}
    for mod, tree in modules.items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in names:
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
        for qual, cls, fn in defined[mod]:
            callees = graph.setdefault(f"{mod}.{qual}", set())
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                target = call.func
                if isinstance(target, ast.Name):
                    if target.id in names[mod]:
                        callees.add(f"{mod}.{target.id}")
                    elif target.id in imported:
                        other, name = imported[target.id]
                        if name in names[other]:
                            callees.add(f"{other}.{name}")
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and cls is not None
                    and f"{cls}.{target.attr}" in names[mod]
                ):
                    callees.add(f"{mod}.{cls}.{target.attr}")
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as ex:
        return ex.args[1]
    return None


def test_package_has_no_recursive_calls():
    graph = call_graph(PACKAGE)
    assert "expr.postorder" in graph and "enclosure.SampleStream._draw" in graph
    assert find_cycle(graph) is None, f"recursive call cycle: {find_cycle(graph)}"


@pytest.mark.parametrize(
    "source, cycle",
    [
        ("def walk(e):\n    return walk(e.lhs)\n", {"m.walk"}),
        (
            "class P:\n"
            "    def expression(self):\n        return self.term()\n"
            "    def term(self):\n        return self.factor()\n"
            "    def factor(self):\n        return self.expression()\n",
            {"m.P.expression", "m.P.term", "m.P.factor"},
        ),
        ("class A:\n    def __init__(self):\n        super().__init__()\n", None),
    ],
)
def test_guard_sees_direct_and_method_cycles(tmp_path, source, cycle):
    (tmp_path / "m.py").write_text(source, encoding="utf-8")
    found = find_cycle(call_graph(tmp_path))
    assert (set(found) if found else None) == cycle


def test_guard_follows_imports_between_modules(tmp_path):
    (tmp_path / "a.py").write_text("from .b import g\n\ndef f(x):\n    return g(x)\n")
    (tmp_path / "b.py").write_text("def g(x):\n    from .a import f\n    return f(x)\n")
    assert set(find_cycle(call_graph(tmp_path))) == {"a.f", "b.g"}
