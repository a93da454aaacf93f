"""The benchmark under ``perfbench/`` looks package names up by string or as
``gc.<name>``; a rename there would break it only when the benchmark runs.
These tests read its sources (without importing them) and resolve each name.
"""

import ast
import importlib
from pathlib import Path

import pytest

import gravcat_coding as gc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module_tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def traced_names() -> list[tuple[str, str]]:
    """(module, name) pairs of the ``TRACED`` table in ``perfbench/tracing.py``."""
    for node in _module_tree("tracing.py").body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names]
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def gate_names() -> set[str]:
    """Every ``gc.<name>`` attribute the benchmark's workloads and tests use."""
    return {
        node.attr
        for source in ("workloads.py", "test_perfbench.py")
        for node in ast.walk(_module_tree(source))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gc"
    }


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"gravcat_coding.{module}"), name))


def test_gate_names_resolve():
    names = gate_names()
    assert {"figure_grid", "cell_capacity", "verification_report"} <= names
    assert [name for name in sorted(names) if not hasattr(gc, name)] == []
