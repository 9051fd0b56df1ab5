"""Every top-level name, method and property in ``src/clinrel`` is used somewhere in ``src/``.

A function, class, constant or method that only tests or demos reach is a
second API to keep working for nobody.  A top-level name counts as used when
some module of ``src/`` refers to it outside the top-level statement that
defines it; the re-exports of a package ``__init__`` and the strings of
``__all__`` do not count.  A method or property of a class counts as used
when ``src/`` mentions its name outside its own definition.  Names that the
benchmark in ``perfbench/`` mentions are exempt, because its tracer patches
module attributes by name, and so are dunders.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clinrel"


def _defined(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _mentions(tree: ast.AST, *, strings: bool = False) -> list[str]:
    """Every name ``tree`` refers to, once per reference."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.append(node.value)
    return names


@functools.cache
def _perfbench_names() -> frozenset[str]:
    return frozenset(
        name
        for path in (ROOT / "perfbench").glob("*.py")
        for name in _mentions(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    )


def _exempt(name: str) -> bool:
    """Mentioned by the benchmark, or a dunder."""
    return name in _perfbench_names() or (name.startswith("__") and name.endswith("__"))


def _modules():
    """``(module, statements)`` of each file of ``src/clinrel``; an ``__init__``'s re-exports are left out."""
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix()
        body = ast.parse(path.read_text(encoding="utf-8")).body
        if path.name == "__init__.py":
            body = [statement for statement in body if not isinstance(statement, ast.ImportFrom)]
        yield module, body


def unused_names() -> list[str]:
    """``module:name`` of each top-level name of ``src/clinrel`` that nothing in ``src/`` uses."""
    definitions = []
    used = set()
    for module, body in _modules():
        for statement in body:
            defined = _defined(statement)
            definitions += [(module, name) for name in defined]
            used |= set(_mentions(statement)) - set(defined)
    return [f"{module}:{name}" for module, name in definitions if name not in used and not _exempt(name)]


def unused_methods() -> list[str]:
    """``module:Class.name`` of each method or property that ``src/`` mentions only inside its own definition."""
    mentions = Counter()
    methods = []
    for module, body in _modules():
        for statement in body:
            mentions.update(_mentions(statement))
            if isinstance(statement, ast.ClassDef):
                methods += [
                    (f"{module}:{statement.name}.{item.name}", item.name, _mentions(item).count(item.name))
                    for item in statement.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return [label for label, name, own in methods if mentions[name] == own and not _exempt(name)]


def test_every_top_level_name_is_used_in_src():
    assert unused_names() == []


def test_every_method_and_property_is_used_in_src():
    assert unused_methods() == []
