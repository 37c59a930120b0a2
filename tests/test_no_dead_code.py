"""Every public function, class and method in the library has a caller.

A public top-level ``def`` or ``class`` in ``src/artifact``, and each
public method of a public class, must be named somewhere outside its own
definition: elsewhere in the library (the package ``__init__`` does not
count, since re-exporting is not calling) or in the benchmark under
``perfbench/``, whose tracer looks some names up by string. A method
counts as named only when an attribute of that name is read: a bare name
or a string of the same spelling is some other thing. Code that only
tests call belongs in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "artifact").glob("*.py")
                 if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, node) for each public top-level definition and
    each public method of a public class; ``_`` names, dunders among
    them, are private."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)) \
                and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) \
                            and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _names_used(tree):
    """Two counts of each name under ``tree``: how often it is loaded,
    read as an attribute or given as a string holding just that
    identifier (as ``getattr`` takes it), and how often it is read as an
    attribute."""
    used, read = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
            read[node.attr] += isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used[node.value] += 1
    return used, read


def unreferenced():
    """``module.name`` (``module.Class.method`` for a method) for each
    public definition nothing else names; a definition's own body does
    not count as a use of it, and only attribute reads count for a
    method."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in LIBRARY + BENCHMARK}
    counts = [_names_used(tree) for tree in trees.values()]
    used = [sum(kind, Counter()) for kind in zip(*counts)]
    # a method's qualified name has a dot: it reads the second count
    return [f"{path.stem}.{name}" for path in LIBRARY
            for name, node in _definitions(trees[path])
            if used["." in name][node.name]
            <= _names_used(node)["." in name][node.name]]


def test_every_public_definition_has_a_caller():
    missing = unreferenced()
    assert not missing, (
        "named nowhere in src/artifact (outside __init__) or perfbench: "
        + ", ".join(missing))


def test_the_scan_sees_the_library():
    names = {f"{path.stem}.{name}" for path in LIBRARY
             for name, _ in _definitions(ast.parse(path.read_text()))}
    assert {"conjugate.conjugate", "poly.BiPoly", "atlas.build_atlas",
            "dynamics.integrate", "poly.BiPoly.to_text",
            "charts.Line.to_json_dict"} <= names
    assert not any(".__" in name or "._" in name for name in names)
