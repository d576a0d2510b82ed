"""Every top-level function of ``bruteforce.py`` is reached from a test:
a test module imports it from ``bruteforce`` or reads it as
``bruteforce.<name>``, or the body of a reached function or class names
it.  A reference that no test reaches checks nothing, yet reads as if it
did.  Read with the standard-library ``ast`` module only."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _unreached(reference: str, tests: list[str]) -> list[str]:
    """The top-level functions of the module source ``reference``, in
    source order, that none of the sources ``tests`` reaches."""
    defs = {node.name: node for node in ast.parse(reference).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = []
    for source in tests:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "bruteforce":
                todo += [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "bruteforce":
                todo.append(node.attr)
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)]
    return [name for name, node in defs.items()
            if isinstance(node, ast.FunctionDef) and name not in reached]


def test_every_reference_function_is_reached_by_a_test():
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))
             if p.name != "bruteforce.py"]
    assert _unreached((TESTS / "bruteforce.py").read_text(encoding="utf-8"), tests) == []


def test_an_unreached_reference_function_is_reported():
    reference = ("def a():\n    return b()\n\ndef b():\n    pass\n\n"
                 "def c():\n    return d()\n\ndef d():\n    pass\n\n"
                 "class K:\n    def m(self):\n        return e()\n\n"
                 "def e():\n    pass\n\ndef f():\n    pass\n\ndef g():\n    return g()\n")
    tests = ["from bruteforce import a\n", "import bruteforce\n\nbruteforce.K(f=1)\n"]
    assert _unreached(reference, tests) == ["c", "d", "f", "g"]
