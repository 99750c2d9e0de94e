"""The benchmark tracer wraps package functions by name: every name it
lists must exist, or the traced run breaks. bench/tracer.py is parsed, not
imported, so nothing under bench/ is executed or written."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from toric_gec.laurent import LaurentPolynomial

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_lists() -> dict[str, list]:
    tree = ast.parse(TRACER.read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "METHODS")
    }


def test_traced_functions_and_methods_exist():
    lists = _tracer_lists()
    assert lists["FUNCTIONS"] and lists["METHODS"]
    missing = [
        (module, attr)
        for module, attr, _ in lists["FUNCTIONS"]
        if not callable(getattr(importlib.import_module("toric_gec." + module), attr, None))
    ]
    assert not missing
    assert not [attr for attr, _ in lists["METHODS"] if attr not in vars(LaurentPolynomial)]
