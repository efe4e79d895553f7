"""No public definition in ``src/`` that nothing in the program uses.

The scan reads every module of ``src/adelic_kummer`` and collects its
public top-level definitions: functions, classes and UPPERCASE constants
whose names do not start with an underscore.  A definition passes when a
file under ``src/``, ``bench/`` or ``tools/`` refers to it outside the
definition itself, as a bare name, an attribute or an imported name.  A
docstring that mentions it does not count, and neither do the tests: a
definition that only the tests call belongs in ``tests/oracles.py``.

Public methods of the classes at the top level of a module are scanned
too, with a conservative rule.  Names such as ``add`` and ``mul`` recur
across classes, so an attribute reference cannot be tied to one class: a
method passes when its name is referred to anywhere in those files outside
its own definition, or when a string constant under ``bench/`` names it as
``module.Class.method``, which is how the bench tracer lists the methods
it leaves untimed.  A method that only the tests call moves to
``tests/oracles.py`` as a function taking the instance first.
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


def public_methods(tree):
    """(Class.method, node) of each public non-dunder method of a top-level
    class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{cls.name}.{node.name}", node


def parse_callers():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in CALLERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def unused(trees, definitions):
    """The names, prefixed by their module, of ``definitions(tree)`` in each
    module of the package whose last part no caller file refers to outside
    the definition itself."""
    names = {path: referenced_names(tree) for path, tree in trees.items()}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in definitions(trees[path]):
            name = qualified.rpartition(".")[2]
            elsewhere = any(name in used for other, used in names.items() if other != path)
            if not elsewhere and name not in referenced_names(trees[path], skip=node):
                found.append(f"{path.stem}.{qualified}")
    return found


def unused_public_names():
    return unused(parse_callers(), public_definitions)


def unused_public_methods():
    trees = parse_callers()
    named_in_bench = {
        node.value
        for path, tree in trees.items()
        if path.is_relative_to(ROOT / "bench")
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return [name for name in unused(trees, public_methods) if name not in named_in_bench]


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert unused_public_names() == []


def test_every_public_method_has_a_caller_outside_the_tests():
    assert unused_public_methods() == []
