"""Every module attribute the benchmark's tracer wraps by name still exists.

``bench/tracing.py`` replaces each of its ``TARGETS`` with a wrapper, so a
renamed or dropped attribute breaks only traced benchmark runs. The list is
read from the file's syntax tree; the tracer is never imported.
"""

import ast
from importlib import import_module
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def tracer_targets():
    """The (module, attribute, span name) triples of the tracer's TARGETS."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
            target.id for target in node.targets if isinstance(target, ast.Name)
        ] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def test_every_traced_attribute_is_callable():
    targets = tracer_targets()
    assert targets
    strays = [
        f"{module}.{attribute}"
        for module, attribute, _ in targets
        if not callable(getattr(import_module(f"scorefusion.{module}"), attribute, None))
    ]
    assert strays == []
