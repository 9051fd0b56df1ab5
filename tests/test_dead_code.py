"""Every top-level name, method, property and record field in ``src/clinrel`` is used.

A function, class, constant or method that only tests or demos reach is a
second API to keep working for nobody, and so is a field that is built but
never read.  A top-level name counts as used when some module of ``src/``
refers to it outside the top-level statement that defines it; the re-exports
of a package ``__init__`` and the strings of ``__all__`` do not count.  A
method or property of a class counts as used when ``src/`` mentions its name
outside its own definition.  Names that the benchmark in ``perfbench/``
reads are exempt, because its tracer patches module attributes by name, and
so are dunders; a name the benchmark only defines for itself (an assignment
target, an attribute it stores, a ``def`` or ``class`` name, an argument)
earns no exemption.  Fields are checked by ``unread_fields``.
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


def _own_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` defines: assignment targets, stored attributes, ``def``/``class`` names, arguments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


@functools.cache
def _perfbench_trees() -> tuple[ast.Module, ...]:
    return tuple(ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py")))


@functools.cache
def _perfbench_names() -> frozenset[str]:
    """The names ``perfbench/`` mentions, less those it defines for itself."""
    trees = _perfbench_trees()
    mentioned = {name for tree in trees for name in _mentions(tree, strings=True)}
    return frozenset(mentioned - set().union(*map(_own_names, trees)))


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


def _field_reads(tree: ast.AST) -> set[str]:
    """The attribute names ``tree`` loads, and the identifiers among its string constants."""
    return {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    }


def _is_record(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` or a ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases
    )


def unread_fields() -> list[str]:
    """``module:Class.field`` of each dataclass or NamedTuple field that nothing reads.

    A field counts as read when ``src/`` or ``perfbench/`` loads an attribute
    of its name, or names it in a string constant (``getattr`` with a
    constant name, a JSON key).  Only the name is matched, so a field escapes
    when any other attribute shares its name: ``FoldResult`` once carried an
    unread ``fold`` field that the method ``SharedGram.fold`` hid.  The
    hyperparameter records of ``learners/params`` are exempt, because ``cli``
    and ``serialize`` read them field by field through ``dataclasses.fields``
    and ``asdict``.
    """
    reads = set().union(*map(_field_reads, _perfbench_trees()))
    fields = []
    for module, body in _modules():
        reads |= set().union(*map(_field_reads, body))
        if module == "learners/params":
            continue
        fields += [
            (f"{module}:{cls.name}.{item.target.id}", item.target.id)
            for statement in body
            for cls in ast.walk(statement)
            if isinstance(cls, ast.ClassDef) and _is_record(cls)
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    return [label for label, name in fields if name not in reads]


def test_every_top_level_name_is_used_in_src():
    assert unused_names() == []


def test_every_method_and_property_is_used_in_src():
    assert unused_methods() == []


def test_every_record_field_is_read():
    assert unread_fields() == []
