"""In-memory spans for the traced benchmark run.

A span is recorded around each call the benchmark makes into a library
module: its name, start, end, the span that caused it and the request it
belongs to.  Spans stay in memory while the run measures and are written out
once, when it ends.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Records nested spans for one thread of calls."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or None, request]
        self.request = None
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, self.request]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._open.pop()

    def self_times(self) -> list:
        """Each span's duration minus the part its child spans cover.

        Calls are made from one thread, so the children of a span never
        overlap and their coverage is the sum of their durations.
        """
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self) -> dict:
        """request -> span name -> summed duration."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s[REQUEST]][s[NAME]] += s[END] - s[START]
        return out

    def child_coverage(self, root_name: str) -> dict:
        """request -> summed duration of the direct children of its root span."""
        roots = {i for i, s in enumerate(self.spans) if s[NAME] == root_name}
        out: dict = defaultdict(float)
        for s in self.spans:
            if s[PARENT] in roots:
                out[s[REQUEST]] += s[END] - s[START]
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s, own in zip(self.spans, self.self_times()):
                fh.write(
                    json.dumps(
                        {
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "request": s[REQUEST],
                            "self": own,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Stands in for a Tracer where nothing is recorded."""

    request = None

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()
