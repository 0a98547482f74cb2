"""Spans around the package's module-level entry points, recorded from
outside the package.

:class:`Tracer` replaces each listed module attribute with a wrapper that
records (name, start, end, parent, run id, error class) and restores the
originals on :meth:`Tracer.uninstall`. The package looks these names up as
module globals at call time, so the wrappers see every call the CLI makes.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# (module, attribute, span name). The span is named after the module that
# defines the function, whichever module the CLI reaches it through.
TARGETS = (
    ("cli", "cmd_score", "cli.cmd_score"),
    ("cli", "load_rule_config", "fileio.load_rule_config"),
    ("cli", "load_batch", "fileio.load_batch"),
    ("cli", "score", "scoring.score"),
    ("cli", "rank", "scoring.rank"),
    ("cli", "load_history_csv", "fileio.load_history_csv"),
    ("cli", "fit", "bayes.fit"),
    ("cli", "save_model", "fileio.save_model"),
    ("fileio", "load_model", "fileio.load_model"),
    ("scoring", "masses_for", "scoring.masses_for"),
    ("scoring", "combine_all", "combination.combine_all"),
    ("scoring", "posterior", "bayes.posterior"),
    ("scoring", "classify", "scoring.classify"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    run_id: str
    error: str | None
    size: int | None  # sources handed to combine_all, reports handed to rank


class Tracer:
    """Installs the wrappers; ``spans`` holds every span recorded since the
    caller last cleared it, tagged with ``run_id`` at the time it ended."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"scorefusion.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        sized = name in ("combination.combine_all", "scoring.rank")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                size = len(args[0]) if sized else None
                spans[index] = Span(name, start, end, parent, self.run_id, error, size)

        return wrapper

    def write(self, path: Path, run_id: str) -> None:
        """Write one run's spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span.run_id == run_id:
                    handle.write(json.dumps(span._asdict()) + "\n")


def summarize(spans: list[Span], run_id: str) -> dict[str, dict]:
    """Per span name: total time, self time, calls, error counts, sizes."""
    own = [(i, s) for i, s in enumerate(spans) if s.run_id == run_id]
    child_time: dict[int, float] = defaultdict(float)
    for _, span in own:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    table: dict[str, dict] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "size": 0, "errors": defaultdict(int)}
    )
    for index, span in own:
        entry = table[span.name]
        duration = span.end - span.start
        entry["s"] += duration
        entry["self_s"] += duration - child_time[index]
        entry["calls"] += 1
        entry["size"] += span.size or 0
        if span.error:
            entry["errors"][span.error] += 1
    return table
