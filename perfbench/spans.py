"""In-memory spans around the benchmark's calls into the package.

A span records its name, start and end times, and how many items the call
handled.  Nothing is written until the pass ends, when the spans are summed
into the pass's per-layer metrics; with tracing off, `span` hands back one
shared no-op object.
"""

from __future__ import annotations

import time


class _NullSpan:
    """Stands in for a span when tracing is off; `items` writes are dropped."""

    items = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "items", "start")

    def __init__(self, tracer, name, items):
        self.tracer = tracer
        self.name = name
        self.items = items

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer.spans.append((self.name, self.start, end, self.items))
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # (name, start, end, items)
        self.counters = {}

    def span(self, name: str, items: int = 1):
        if not self.enabled:
            return _NULL
        return _Span(self, name, items)

    def add(self, name: str, k: int):
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, module, attr: str, name: str):
        """Route the module's global `attr` through a span, so calls the
        package makes to it internally are timed as well."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)

    def totals(self) -> dict:
        """name -> [calls, items, seconds]."""
        out = {}
        for name, start, end, items in self.spans:
            row = out.setdefault(name, [0, 0, 0.0])
            row[0] += 1
            row[1] += items
            row[2] += end - start
        return out
