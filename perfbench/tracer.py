"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (id, name, start, end, parent id, replication id). The layer of a
span is the part of its name before the first dot. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, rep: int | None = None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((span_id, name, start, end, parent, rep))

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name, in end order."""
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Per layer: span time minus the time its direct child spans cover."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for span_id, name, start, end, _, _ in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time.get(span_id, 0.0)
        return out

    def as_records(self, origin: float) -> list[dict]:
        return [
            {"id": i, "name": n, "start_s": s - origin, "end_s": e - origin,
             "parent": parent, "rep": rep}
            for i, n, s, e, parent, rep in sorted(self.spans)
        ]
