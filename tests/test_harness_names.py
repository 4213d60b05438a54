"""The benchmark harness wraps package functions by name; a rename must
fail here, not only in the harness's own tests."""

import ast
import importlib
import os

import pytest

TRACE_OP = os.path.join(os.path.dirname(__file__), "..", "perfbench", "trace_op.py")


def _layers():
    """(module, attribute path) of every LAYERS entry, read from the
    source without importing or executing the harness."""
    with open(TRACE_OP) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return [tuple(ast.literal_eval(e) for e in v.elts[:2]) for v in node.value.values]
    raise AssertionError("no LAYERS assignment in perfbench/trace_op.py")


@pytest.mark.parametrize("module, attr", _layers())
def test_harness_layer_names_resolve(module, attr):
    owner = importlib.import_module(f"oddtangle.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
