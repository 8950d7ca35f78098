"""Spans for the traced run: recording in the worker, self time in run.py.

A span is ``[name, start, end, parent, request, error]``: ``start`` and
``end`` come from ``time.perf_counter``, ``parent`` is the index of the
enclosing span (or None), ``request`` the id of the request being
replayed, and ``error`` is 1 when the call raised.  Spans stay in memory
and are written out once, when the worker ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Records well-nested spans of one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[5] = 1
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` so every call through that name is a span.

        This is how calls that one package module makes into another are
        traced without changing the package: each module looks the name
        up in its own globals at call time.
        """
        fn = getattr(module, attr)
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        setattr(module, attr, traced)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(s[2] - s[1]) - covered[i] for i, s in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: total self time, calls and errors."""
    out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": 0})
    for span, own in zip(spans, self_times(spans)):
        row = out[span[0]]
        row["self_s"] += own
        row["calls"] += 1
        row["errors"] += span[5]
    return dict(out)
