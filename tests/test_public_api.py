"""No public definition in ``src/`` that nothing in the program uses.

The scan reads every module of ``src/adelic_kummer`` and collects its
public top-level definitions: functions, classes and UPPERCASE constants
whose names do not start with an underscore.  A definition passes when a
file under ``src/``, ``bench/`` or ``tools/`` refers to it outside the
definition itself, as a bare name, an attribute or an imported name.  A
docstring that mentions it does not count, and neither do the tests: a
definition that only the tests call belongs in ``tests/oracles.py``.

Methods are out of scope.  Names such as ``add`` and ``mul`` recur across
classes, so an attribute reference cannot be tied to one class; the
methods that only the tests called were found by hand and moved to
``tests/oracles.py`` as functions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adelic_kummer"
CALLERS = ("src", "bench", "tools")


def public_definitions(tree):
    """(name, node) of each public top-level function, class and
    UPPERCASE constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def referenced_names(node, skip=None):
    """Every name a bare name, an attribute or an import in ``node`` uses,
    leaving out the subtree ``skip``."""
    found = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.alias):
            found.add(current.name)
        stack.extend(ast.iter_child_nodes(current))
    return found


def unused_public_names():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in CALLERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    names = {path: referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in public_definitions(trees[path]):
            elsewhere = any(name in found for other, found in names.items() if other != path)
            if not elsewhere and name not in referenced_names(trees[path], skip=node):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert unused_public_names() == []
