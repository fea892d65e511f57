"""In-memory spans and call counters recorded around locclab's layers.

Spans are opened by the benchmark around each call into a layer; nothing is
added inside the program. They are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LINALG_CALLS = ("eigvalsh", "eigh", "svd")


class Tracer:
    """Spans with name, start, end, parent span and op id."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call, for calls made inside a layer."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, duration) -> dict[int, dict[str, float]]:
        """Per op id: each span name's duration minus its children's.

        ``duration(span)`` gives the seconds a span counts for.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += duration(s)
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            per_op = out.setdefault(s["op"], {})
            own = duration(s) - child_time[s["id"]]
            per_op[s["name"]] = per_op.get(s["name"], 0.0) + own
        return out


class LinalgCounter:
    """Counts and times calls to the numpy.linalg eigensolvers and SVD.

    locclab calls them as ``np.linalg.<name>``, so replacing the attributes
    of the numpy.linalg module catches every call.
    """

    def __init__(self):
        self.calls = dict.fromkeys(LINALG_CALLS, 0)
        self.seconds = 0.0

    def _counting(self, name: str, fn):
        clock = time.perf_counter

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - start
                self.calls[name] += 1

        return counted

    @contextmanager
    def installed(self, linalg_module):
        originals = {name: getattr(linalg_module, name) for name in LINALG_CALLS}
        for name, fn in originals.items():
            setattr(linalg_module, name, self._counting(name, fn))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(linalg_module, name, fn)
