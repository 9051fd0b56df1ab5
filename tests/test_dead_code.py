"""Every top-level name in ``src/clinrel`` is used somewhere in ``src/``.

A function, class or constant that only tests or demos reach is a second
API to keep working for nobody.  A name counts as used when some module of
``src/`` refers to it outside the top-level statement that defines it; the
re-exports of a package ``__init__`` and the strings of ``__all__`` do not
count.  Names that the benchmark in ``perfbench/`` mentions are exempt,
because its tracer patches module attributes by name, and so are dunders.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clinrel"


def _defined(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _mentions(tree: ast.AST, *, strings: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def unused_names() -> list[str]:
    """``module:name`` of each top-level name of ``src/clinrel`` that nothing in ``src/`` uses."""
    exempt = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        exempt |= _mentions(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    definitions = []
    used = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix()
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = _defined(statement)
            definitions += [(module, name) for name in defined]
            if path.name == "__init__.py" and isinstance(statement, ast.ImportFrom):
                continue
            used |= _mentions(statement) - set(defined)
    return [
        f"{module}:{name}"
        for module, name in definitions
        if name not in used and name not in exempt and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_top_level_name_is_used_in_src():
    assert unused_names() == []
