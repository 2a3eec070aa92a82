"""Spans recorded by the benchmark around its calls into each layer.

The program under test is not instrumented.  A span is
``(name, start, end, parent, request id)``: ``parent`` is the index of
the span that caused it (``-1`` for a root) and spans of one request
share its id.  Spans stay in memory and are written once, at exit.
"""

import json
import os
import time
from typing import List, Optional, Tuple

Span = Tuple[str, float, float, int, Optional[int]]


class SpanLog:
    """An append-only in-memory span list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._t0 = time.perf_counter()

    def now(self) -> float:
        """Seconds since the log was created."""
        return time.perf_counter() - self._t0

    def add(self, name: str, start: float, end: float, parent: int = -1,
            request_id: Optional[int] = None) -> int:
        """Record one finished span; returns its index (a parent handle)."""
        self.spans.append((name, start, end, parent, request_id))
        return len(self.spans) - 1

    def open(self, name: str, parent: int = -1) -> int:
        """Start a long-lived span (a phase or rung); close it later."""
        return self.add(name, self.now(), float("nan"), parent)

    def close(self, index: int) -> float:
        """End a span started with :meth:`open`; returns its duration."""
        name, start, _, parent, request_id = self.spans[index]
        end = self.now()
        self.spans[index] = (name, start, end, parent, request_id)
        return end - start

    def write(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent, rid."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, request_id in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "rid": request_id,
                }) + "\n")
