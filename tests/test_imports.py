"""Every top-level import of the Python files under ``src/``, ``tests/``
and ``scripts/`` is read by the file that makes it.

A name counts as read when the file loads it (``ast.Name``), lists it in
its ``__all__``, or when another of these files imports it from this one,
as the tests import helpers from ``conftest`` and ``oracles``.
``from __future__`` imports are exempt.
"""

import ast

from conftest import REPO

PATHS = sorted(p for d in ("src", "tests", "scripts")
               for p in (REPO / d).rglob("*.py"))


def _module_name(path) -> str:
    """``jumploci.cli`` for ``src/jumploci/cli.py``, ``jumploci`` for its
    ``__init__.py``, ``conftest`` for ``tests/conftest.py``: the name
    other files import it by."""
    parts = path.relative_to(REPO).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts[1:]) if parts[0] == "src" else parts[-1]


def _imported_from(trees) -> dict:
    """{module name: the names some file imports from it}, relative
    imports resolved against the importing module."""
    out = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    base = _module_name(path).rsplit(".", node.level)[0]
                    module = f"{base}.{module}".rstrip(".")
                out.setdefault(module, set()).update(
                    a.name for a in node.names)
    return out


def _bound_names(node) -> list:
    """The names a top-level import statement binds; none for any other
    statement or for ``from __future__``."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def _exported(tree) -> set:
    """The strings of a top-level ``__all__``."""
    return {elt.value for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__"
                    for t in node.targets)
            for elt in node.value.elts}


def test_every_import_is_read():
    trees = {path: ast.parse(path.read_text()) for path in PATHS}
    imported = _imported_from(trees)
    unused = []
    for path, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        read |= _exported(tree) | imported.get(_module_name(path), set())
        unused += [f"{path.relative_to(REPO)}:{node.lineno} {name}"
                   for node in tree.body for name in _bound_names(node)
                   if name not in read]
    assert not unused, "imported and never read: " + ", ".join(unused)
