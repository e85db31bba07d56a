"""The benchmark's tracer wraps package functions by name; every name it
lists must still exist in the package."""

import ast
import importlib
from pathlib import Path

import hiddenpartition

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> dict:
    """TARGETS of perfbench/tracer.py, read from its source, not imported."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_tracer_targets_resolve_to_callables():
    targets = tracer_targets()
    assert targets
    for module_name, names in targets.items():
        module = importlib.import_module(f"hiddenpartition.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"hiddenpartition.{module_name}.{name}"


def test_public_names_resolve():
    for name in hiddenpartition.__all__:
        assert hasattr(hiddenpartition, name), name
