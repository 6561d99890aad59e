"""The package's modules import each other without a cycle.

Each module may import only modules below it, so the package reads
bottom-up: `record`, then `expr`, `semantics` and `parser`, then
`enclosure`, `rewrite`, and `families`, `blind` and `cli` on top.  This guard parses each module
and collects every import of a sibling module, wherever it is written:
at the top of the module, inside a function, or under `TYPE_CHECKING`.
It fails on any cycle among them, and on any sibling import that is not
at the top of its module, since such an import is how a cycle hides.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "enclosures"
NAME = "enclosures"


def _loaded(node: ast.AST, package: str) -> list[str]:
    """Dotted names, relative to the package, that one import statement loads.

    `from . import x` may load a module x or merely a name of the package,
    so x is listed and the caller keeps only the modules.
    """
    if isinstance(node, ast.Import):
        prefix = package + "."
        return [a.name[len(prefix) :] for a in node.names if a.name.startswith(prefix)]
    if not isinstance(node, ast.ImportFrom) or node.level > 1:
        return []
    module = node.module or ""
    if node.level == 0:
        if module != package and not module.startswith(package + "."):
            return []
        module = module[len(package) + 1 :]
    return [module] if module else [a.name for a in node.names]


def import_graph(root: Path, package: str = NAME) -> tuple[dict[str, set[str]], list]:
    """(edges module -> sibling modules it imports, nested sibling imports).

    A nested import is (module, line) for a sibling import that is not a
    statement of the module's own body.
    """
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in root.glob("*.py")
    }
    siblings = set(trees)
    graph: dict[str, set[str]] = {}
    nested = []
    for mod, tree in trees.items():
        graph[mod] = set()
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            found = {name.split(".")[0] for name in _loaded(node, package)} & siblings
            graph[mod] |= found
            if found and id(node) not in top:
                nested.append((mod, node.lineno))
    return graph, nested


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as ex:
        return ex.args[1]
    return None


def test_package_imports_form_a_dag():
    graph, _ = import_graph(PACKAGE)
    assert {"expr", "enclosure", "rewrite", "blind", "cli"} <= set(graph)
    assert find_cycle(graph) is None, f"import cycle: {find_cycle(graph)}"


def test_every_sibling_import_is_at_module_top():
    _, nested = import_graph(PACKAGE)
    assert nested == []


def test_enclosure_does_not_import_blind():
    # The interval arithmetic lives beside over_approx, below the blind view.
    graph, _ = import_graph(PACKAGE)
    assert "blind" not in graph["enclosure"]


def _package(tmp_path: Path, files: dict[str, str]) -> Path:
    for name, source in files.items():
        (tmp_path / f"{name}.py").write_text(source, encoding="utf-8")
    return tmp_path


def test_guard_sees_a_cycle_through_a_function_level_import(tmp_path):
    root = _package(
        tmp_path,
        {
            "a": "from .b import g\n\ndef f(x):\n    return g(x)\n",
            "b": "def g(x):\n    from .a import f\n    return f(x)\n",
            "c": "from . import a\n",
        },
    )
    graph, nested = import_graph(root)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    assert set(find_cycle(graph)) == {"a", "b"}
    assert nested == [("b", 2)]


def test_guard_sees_type_checking_and_absolute_imports(tmp_path):
    root = _package(
        tmp_path,
        {
            "a": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .b import B\n",
            "b": "import enclosures.a\nfrom enclosures import c\n",
            "c": "import json\nfrom .. import elsewhere\n",
        },
    )
    graph, nested = import_graph(root)
    assert graph == {"a": {"b"}, "b": {"a", "c"}, "c": set()}
    assert set(find_cycle(graph)) == {"a", "b"}
    assert nested == [("a", 3)]


def test_guard_passes_a_layered_package(tmp_path):
    root = _package(
        tmp_path,
        {"low": "X = 1\n", "mid": "from .low import X\n", "top": "from . import low, mid\n"},
    )
    graph, nested = import_graph(root)
    assert graph == {"low": set(), "mid": {"low"}, "top": {"low", "mid"}}
    assert find_cycle(graph) is None and nested == []


def unused_imports(path: Path) -> list[str]:
    """Names a module imports at top level and never uses, in its code or in
    its annotations, string annotations included; stdlib `ast` only, so the
    guard runs where no linter is installed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        (a.asname or a.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for a in node.names
    ]
    annotations = [
        ann
        for node in ast.walk(tree)
        for ann in (
            [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign))
            else [node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else []
        )
        if ann is not None
    ]
    texts = [
        ast.parse(c.value, mode="eval")
        for ann in annotations
        for c in ast.walk(ann)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    used = {n.id for root in [tree, *texts] for n in ast.walk(root) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        path.stem: unused_imports(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {mod: names for mod, names in unused.items() if names} == {}


def test_no_test_module_imports_a_name_it_does_not_use():
    tests = Path(__file__).resolve().parent
    unused = {path.name: unused_imports(path) for path in sorted(tests.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_guard_reads_code_and_annotations(tmp_path):
    root = _package(
        tmp_path,
        {
            "a": (
                "from __future__ import annotations\n"
                "import json, os.path\n"
                "from fractions import Fraction\n"
                "from typing import Mapping, Union\n"
                "from .b import B, C, D as E\n"
                "def f(x: Mapping[str, 'B'], y: Union['Fraction', None]) -> C:\n"
                "    return json.dumps(x)\n"
            ),
        },
    )
    assert unused_imports(root / "a.py") == ["os", "E"]
