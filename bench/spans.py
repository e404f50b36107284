"""In-memory span recorder for the traced pass of the benchmark.

Spans are recorded by the benchmark around calls into the package's
public functions; nothing inside the package is changed. A wrapped
function is swapped in for the module attribute the caller looks up at
call time, so a call such as ``cli.cmd_region -> render_region_csv``
shows up as a parent and a child span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into Tracer.spans


class Tracer:
    """Records nested spans of one thread; they stay in memory until read."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def instrument(self, targets: dict[str, tuple[str, ...]]):
        """Wrap module attributes for the duration of the block.

        targets maps a module name to the attribute names to wrap. Each
        span is named after the layer that defines the function, such as
        ``decision.region_grid``. Missing attributes are skipped, so that
        a later change which stops importing a name into a module (a
        lazy import, say) does not break the traced run.
        """
        saved = []
        try:
            for module_name, names in targets.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(f"{layer}.{fn.__name__}", fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(index, ()), key=lambda s: s.start_ns):
            lo = max(child.start_ns, cursor, span.start_ns)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.end_ns - span.start_ns - covered)
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, int]:
    """Total self time in ns per span name."""
    totals: dict[str, int] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        totals[span.name] = totals.get(span.name, 0) + own
    return totals
