"""Every function in ``src/jumploci`` has a caller in ``src/``.

A function or method whose name is referenced nowhere in the package
outside its own body serves only the tests; such a route belongs in
``tests/oracles.py``.  The scan is by name: any ``Name`` or ``Attribute``
node with that name counts as a reference.  Dunders, the entry point
``cli.main`` and the names the benchmark tracer wraps (read from
``perfbench/tracer.py`` without importing it) are exempt.  Likewise every
field of a dataclass in ``src/jumploci`` is read somewhere in the repo.
"""

import ast

from conftest import REPO
from test_traced_names import TRACED

SRC = REPO / "src" / "jumploci"
EXEMPT = {"main"} | {attr.rpartition(".")[2] for _, attr in TRACED}


def test_every_src_function_has_a_src_caller():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = {}  # name -> ids of the nodes that reference it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(id(node))
    flagged = []
    for fname, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = fn.name
            if (name.startswith("__") and name.endswith("__")) \
                    or name in EXEMPT:
                continue
            own = {id(sub) for sub in ast.walk(fn)}
            if all(ref in own for ref in refs.get(name, ())):
                flagged.append(f"{fname}:{fn.lineno} {name}")
    assert not flagged, "no caller in src/: " + ", ".join(flagged)


def test_every_dataclass_field_is_read():
    """A field of a dataclass in ``src/`` is read, by its name as an
    attribute, somewhere in ``src/``, ``tests/``, ``scripts/`` or
    ``perfbench/``; one that is only ever written is work nothing needs."""
    paths = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                   for p in (REPO / d).rglob("*.py"))
    read = {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                unread += [f"{cls.name}.{stmt.target.id}"
                           for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign)
                           and stmt.target.id not in read]
    assert not unread, "never read: " + ", ".join(unread)
