"""The names the benchmark tracer wraps must exist in the program.

``perfbench/tracer.py`` wraps functions by (module, attribute) name and
raises LookupError for one that is gone, which fails every traced job.
This test reads those names from the file without importing it and
resolves each one as the tracer does, so renaming or deleting a traced
function fails here first.
"""

import ast
import importlib

import pytest

from conftest import REPO

TRACER = REPO / "perfbench" / "tracer.py"


def _literal(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == [name]):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACER.name}")


TRACED = _literal("SPANNED") + _literal("COUNTED")


@pytest.mark.parametrize("mod, attr", TRACED,
                         ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(mod, attr):
    module = importlib.import_module(f"jumploci.{mod}")
    owner_name, _, key = attr.rpartition(".")
    target = getattr(module, owner_name) if owner_name else module
    if not owner_name and isinstance(getattr(module, key, None), type):
        target, key = getattr(module, key), "__init__"
    if isinstance(target, type):
        assert key in target.__dict__
    else:
        assert callable(getattr(target, key, None))


def test_traced_pair_counter_exists():
    groebner = importlib.import_module("jumploci.groebner")
    assert isinstance(groebner.GBStats.pairs_processed, int)
