"""The benchmark's tracer (perfbench/tracing.py) patches package names by
string; a renamed function would silently drop its spans.  The tracer file
is only parsed here, never imported or executed."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and "TARGETS" in names:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for module, attr, _span in targets:
        mod = importlib.import_module(f"escmass.{module}")
        assert callable(getattr(mod, attr, None)), f"escmass.{module}.{attr}"
