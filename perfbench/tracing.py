"""In-memory spans around the benchmark's calls into treepin's layers.

A span records name, start, end, parent span and op id.  Spans are kept in
a list and written out once, when the run ends.  With tracing off the
workloads call `NULL.span(...)`, which returns a shared no-op context, so
traced and untraced runs execute the same code.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NOOP = contextlib.nullcontext()


class NullTracer:
    def span(self, name: str):
        return _NOOP


NULL = NullTracer()


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds (duration
        minus the time its direct children cover; children never overlap
        because the benchmark is single-threaded)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[i]
        return dict(stats)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_s": round(start - t0, 9),
                            "end_s": round(end - t0, 9),
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def wrap_function(namespace, attr: str, tracer: Tracer, span_name: str, on_return=None):
    """Replace namespace.attr with a traced wrapper; returns an undo
    callable.  `on_return(args, kwargs)` runs after a call that returned,
    for counters."""
    original = getattr(namespace, attr)

    def traced(*args, **kwargs):
        with tracer.span(span_name):
            result = original(*args, **kwargs)
        if on_return is not None:
            on_return(args, kwargs)
        return result

    setattr(namespace, attr, traced)
    return lambda: setattr(namespace, attr, original)
