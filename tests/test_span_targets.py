"""The benchmark's spans wrap nlkpp functions by name; every name must resolve."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_targets() -> dict:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


@pytest.mark.skipif(not SPANS.is_file(), reason="perfbench/ is absent")
def test_every_span_target_resolves():
    targets = span_targets()
    assert targets
    for span, (module, attr) in targets.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: {module}.{attr} does not resolve"
        assert callable(owner), span
