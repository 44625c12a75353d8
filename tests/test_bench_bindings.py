"""The traced benchmark's bindings resolve: every function that
`bench/traced_child.py` rebinds, named in its `TRACED` and `COUNTED`
dicts, exists in the package, so a rename fails here and not only in a
traced benchmark run. The dicts are read from the script's source,
without importing it."""

import ast
import importlib
from pathlib import Path

import pytest

TRACED_CHILD = Path(__file__).resolve().parents[1] / "bench" / "traced_child.py"


def bound_names():
    """`rotorspin.<module>.<name>` of each entry of TRACED and COUNTED."""
    tree = ast.parse(TRACED_CHILD.read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("TRACED",
                                                                  "COUNTED"):
                    tables[target.id] = ast.literal_eval(node.value)
    assert sorted(tables) == ["COUNTED", "TRACED"]
    return [f"rotorspin.{module}.{name}"
            for table in tables.values()
            for module, names in table.items() for name in names]


NAMES = bound_names()


def test_traced_child_binds_functions():
    assert len(NAMES) >= 10


@pytest.mark.parametrize("path", NAMES)
def test_bound_name_resolves_to_a_callable(path):
    module, name = path.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), name, None)), path
