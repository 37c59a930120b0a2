"""Every public function, class and method in the library has a caller.

A public top-level ``def`` or ``class`` in ``src/artifact``, and each
public method of a public class, must be named somewhere outside its own
definition: elsewhere in the library (the package ``__init__`` does not
count, since re-exporting is not calling) or in the benchmark under
``perfbench/``, whose tracer looks some names up by string. A method
counts as named only when an attribute of that name is read: a bare name
or a string of the same spelling is some other thing. Code that only
tests call belongs in ``tests/oracles.py``.

Two more checks stand in for a linter: each private top-level function
must be named the same way, and each name that a module's top-level
import binds must be used in that module, apart from ``__future__``
imports and names on a line marked ``# noqa: F401`` (a re-export).

Operators are applied, not named, so the scan above cannot see them.
``BiPoly`` instead defines exactly the dunder methods in
``BIPOLY_DUNDERS``: the ones the library applies, and ``__repr__``,
which pytest prints for every failed polynomial comparison.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "artifact").glob("*.py")
                 if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
BIPOLY_DUNDERS = ("__add__", "__eq__", "__init__", "__mul__", "__neg__",
                  "__repr__", "__sub__")


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


def _trees():
    return {path: ast.parse(path.read_text(), str(path))
            for path in LIBRARY + BENCHMARK}


def unreferenced():
    """``module.name`` (``module.Class.method`` for a method) for each
    public definition nothing else names; a definition's own body does
    not count as a use of it, and only attribute reads count for a
    method."""
    trees = _trees()
    counts = [_names_used(tree) for tree in trees.values()]
    used = [sum(kind, Counter()) for kind in zip(*counts)]
    # a method's qualified name has a dot: it reads the second count
    return [f"{path.stem}.{name}" for path in LIBRARY
            for name, node in _definitions(trees[path])
            if used["." in name][node.name]
            <= _names_used(node)["." in name][node.name]]


def unreferenced_private_functions():
    """``module._name`` for each private top-level function that nothing
    outside its own body names."""
    trees = _trees()
    used = sum((_names_used(tree)[0] for tree in trees.values()), Counter())
    return [f"{path.stem}.{node.name}" for path in LIBRARY
            for node in trees[path].body
            if isinstance(node, _FUNCTIONS) and node.name.startswith("_")
            and used[node.name] <= _names_used(node)[0][node.name]]


def unused_imports(source: str) -> list:
    """The names that a top-level import of ``source`` binds and that no
    bare name in it reads, skipping ``__future__`` imports and names on
    a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if "# noqa: F401" not in lines[alias.lineno - 1]
            for name in [alias.asname or alias.name.split(".")[0]]
            if name not in loaded]


def class_dunders(source: str, name: str) -> list:
    """The dunder methods that class ``name`` of ``source`` defines, by
    ``def`` or by assignment (``__radd__ = __add__``), sorted;
    ``__slots__`` is data, not a method."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    names.append(item.name)
                elif isinstance(item, ast.Assign):
                    names += [t.id for t in item.targets
                              if isinstance(t, ast.Name)]
    return sorted(n for n in names if n.startswith("__")
                  and n.endswith("__") and n != "__slots__")


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


def test_every_private_function_has_a_caller():
    missing = unreferenced_private_functions()
    assert not missing, (
        "named nowhere in src/artifact (outside __init__) or perfbench: "
        + ", ".join(missing))


def test_every_import_is_used():
    unused = [f"{path.stem}.{name}" for path in LIBRARY
              for name in unused_imports(path.read_text())]
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_the_import_scan_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from array import array\n"
              "from math import (\n"
              "    hypot,  # noqa: F401\n"
              "    sqrt,\n"
              ")\n"
              "import json as js\n"
              "os.getpid()\n")
    assert unused_imports(source) == ["array", "sqrt", "js"]


def test_bipoly_defines_only_the_listed_dunders():
    source = (ROOT / "src" / "artifact" / "poly.py").read_text()
    found = class_dunders(source, "BiPoly")
    assert found == list(BIPOLY_DUNDERS), (
        f"not in BIPOLY_DUNDERS: {sorted(set(found) - set(BIPOLY_DUNDERS))}"
        f"; listed but not defined: "
        f"{sorted(set(BIPOLY_DUNDERS) - set(found))}")


def test_the_dunder_scan_sees_unused_operators():
    source = ("class BiPoly:\n"
              "    __slots__ = ('vars', 'terms')\n"
              + "".join(f"    def {name}(self, *args): pass\n"
                        for name in BIPOLY_DUNDERS)
              + "    def __pow__(self, n): pass\n"
              "    __radd__ = __add__\n"
              "    def _coerce(self, other): pass\n"
              "class Other:\n"
              "    def __bool__(self): pass\n")
    found = class_dunders(source, "BiPoly")
    assert found != list(BIPOLY_DUNDERS)
    assert sorted(set(found) - set(BIPOLY_DUNDERS)) == ["__pow__", "__radd__"]
