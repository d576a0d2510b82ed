"""Every name a library module imports is used in that module,
``__init__.py`` exports exactly the names it imports, the library
imports nothing but the standard library and its own modules, only
``digraph.py`` tests for a bool or compares ``type(x)`` with ``int``, in
the one count rule, no library
function calls itself, so no input size meets Python's recursion limit,
no library function imports in its body, so a module's imports all
stand at its top, only ``digraph._Record`` may name
``object.__setattr__``, so the records' fields have one store, and
outside ``digraph.py`` every ``_adjacency`` call names its vertex set, so
the choice of whole-D masks stays in ``digraph._adjacency``.

Read with the standard-library ``ast`` module only, so the checks need no
linter.  The unused-import check leaves ``__init__.py`` out: it imports
names to re-export them.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dichromate"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda t: t[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "from .search import ABSENT, FOUND\n\nstatus = ABSENT\n"
    assert _unused_imports(source) == ["line 1: FOUND"]


def test_the_library_modules_are_found():
    assert {"cli.py", "digraph.py", "decomposition.py", "constructive.py"} <= {
        p.name for p in MODULES}


def _export_mismatch(source: str) -> tuple[list[str], list[str]]:
    """Names ``__all__`` lists but the module does not import, and the
    reverse."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    return sorted(set(exported) - imported), sorted(imported - set(exported))


def test_all_lists_exactly_the_imported_names():
    assert _export_mismatch((SRC / "__init__.py").read_text(encoding="utf-8")) == ([], [])


def test_a_lingering_export_is_reported():
    source = 'from .search import ABSENT, FOUND\n\n__all__ = ["ABSENT", "gone"]\n'
    assert _export_mismatch(source) == (["gone"], ["FOUND"])


def _foreign_imports(source: str) -> list[str]:
    """Absolute imports of modules outside ``sys.stdlib_module_names``;
    package-relative imports are the library's own."""
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        foreign += [f"line {node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    return foreign


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_standard_library_is_imported(path):
    assert _foreign_imports(path.read_text(encoding="utf-8")) == []


def test_a_foreign_import_is_reported():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from hypothesis.strategies import integers\nfrom . import mu\n"
              "from .digraph import OUT\n")
    assert _foreign_imports(source) == ["line 3: numpy", "line 4: hypothesis.strategies"]


def _is_type_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "type"


def _bool_tests(source: str) -> list[str]:
    """The lines that call ``isinstance`` with ``bool`` as, or among, its
    types, or compare a ``type(...)`` call with ``int`` by ``is``, ``is
    not``, ``==`` or ``!=``: a hand-written count check, which
    ``digraph._check_count`` makes once for the library."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(t, "id", None) == "bool" for t in types):
                lines.append(f"line {node.lineno}")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                   and _is_type_call(x) and getattr(y, "id", None) == "int"
                   for a, op, b in zip(operands, node.ops, operands[1:])
                   for x, y in ((a, b), (b, a))):
                lines.append(f"line {node.lineno}")
    return sorted(lines, key=lambda line: int(line.split()[1]))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "digraph.py"],
                         ids=lambda p: p.name)
def test_only_the_count_rule_tests_for_a_bool(path):
    assert _bool_tests(path.read_text(encoding="utf-8")) == []


def test_a_hand_written_count_check_is_reported():
    source = ("def f(n, k):\n    if not isinstance(n, int) or isinstance(n, bool):\n"
              "        raise TypeError\n    return isinstance(k, (float, bool)), isinstance(k, int)\n")
    assert _bool_tests(source) == ["line 2", "line 4"]


def test_a_type_comparison_with_int_is_reported():
    source = ("ok = all(type(v) is int for v in xs)\nbad = type(n) is not int\n"
              "eq = int == type(n)\nne = 0 < type(n) != int\n"
              "fine = type(n) is float, type(n) in (int,), isinstance(n, int), n is int\n")
    assert _bool_tests(source) == ["line 1", "line 2", "line 3", "line 4"]


def _self_calls(source: str) -> list[str]:
    """The calls by which a function, nested or not, calls its own name,
    directly or as ``self.<name>``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self":
                name = f.attr
            else:
                name = getattr(f, "id", None)
            if name == node.name:
                calls.append((call.lineno, node.name))
    return [f"line {line}: {name}" for line, name in sorted(calls)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_library_function_calls_itself(path):
    assert _self_calls(path.read_text(encoding="utf-8")) == []


def test_a_self_call_is_reported():
    source = ("def peel(n):\n    return n and peel(n - 1)\n\n"
              "def outer(xs):\n    def walk(i):\n        return i < len(xs) and walk(i + 1)\n"
              "    return walk(0)\n\n"
              "class Oracle:\n    def mu(self, s):\n        return self.inner.mu(s) or self.mu(s)\n\n"
              "def query(db):\n    return db.query()\n")
    assert _self_calls(source) == ["line 2: peel", "line 6: walk", "line 11: mu"]


def _function_imports(source: str) -> list[str]:
    """The imports inside a function's body, nested functions included,
    each with the innermost function that makes it."""
    owner = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    owner[inner.lineno] = node.name
    return [f"line {line}: {name}" for line, name in sorted(owner.items())]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_library_function_imports_in_its_body(path):
    assert _function_imports(path.read_text(encoding="utf-8")) == []


def test_a_function_level_import_is_reported():
    source = ("import json\n\ndef load(s):\n    from .digraph import DirectedPath\n"
              "    return json.loads(s)\n\n"
              "class Reader:\n    def read(self):\n        def inner():\n"
              "            import re\n        return inner\n")
    assert _function_imports(source) == ["line 4: load", "line 10: inner"]


def _stray_field_stores(source: str, home: str | None = None) -> list[str]:
    """The lines that name ``object.__setattr__``, called or not, outside
    the top-level class ``home``."""
    tree = ast.parse(source)
    allowed = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == home
               for node in ast.walk(cls)}
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and getattr(node.value, "id", None) == "object" and id(node) not in allowed)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_record_base_stores_fields(path):
    home = "_Record" if path.name == "digraph.py" else None
    assert _stray_field_stores(path.read_text(encoding="utf-8"), home) == []


def test_a_stray_field_store_is_reported():
    source = ("class _Record:\n    def __init__(self, v):\n"
              "        object.__setattr__(self, 'v', v)\n\n"
              "class Path(_Record):\n    def __init__(self, v):\n"
              "        object.__setattr__(self, 'v', v)\n\n"
              "def thaw(record):\n    store = object.__setattr__\n    store(record, 'v', 0)\n"
              "    record.__setattr__('v', 1)\n")
    assert _stray_field_stores(source, "_Record") == ["line 7", "line 10"]
    assert _stray_field_stores(source) == ["line 3", "line 7", "line 10"]


def _whole_d_adjacency_calls(source: str) -> list[str]:
    """The lines that call ``_adjacency``, by name or as an attribute,
    without a vertex set: no second argument and no ``vertices=``."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_adjacency"
            and len(node.args) < 2 and not any(k.arg == "vertices" for k in node.keywords)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "digraph.py"],
                         ids=lambda p: p.name)
def test_only_digraph_builds_masks_without_a_vertex_set(path):
    assert _whole_d_adjacency_calls(path.read_text(encoding="utf-8")) == []


def test_a_whole_d_adjacency_call_is_reported():
    source = ("adj = _adjacency(D)\nother = digraph._adjacency(D, comp)\n"
              "named = _adjacency(D, vertices=comp)\nwhole = digraph._adjacency(\n    D)\n")
    assert _whole_d_adjacency_calls(source) == ["line 1", "line 4"]
