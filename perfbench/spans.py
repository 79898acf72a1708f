"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the package: around the benchmark's own
calls, and around public functions it patches for the length of a traced
section (``wrap``).  Nothing inside ``searchengines_ray`` is changed.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Spans with name, start, end, parent and a request id shared by every
    span of one request.  ``dump`` writes them out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._rids = itertools.count()

    def new_request(self) -> int:
        return next(self._rids)

    @contextmanager
    def span(self, name: str, rid=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "rid": rid if rid is not None else (parent["rid"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrap(self, owner, attr: str, name: str, after=None):
        """Replace ``owner.attr`` by a version that records a span named
        ``name``; ``after(rec, args, result)`` may add counts to the span
        once its clock has stopped.  The original is restored on exit."""
        orig = getattr(owner, attr)
        # a bound method found on the class is shadowed, not replaced
        own = attr in vars(owner)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = orig(*args, **kwargs)
            if after is not None:
                # a span of its own, so the caller's self time excludes it
                with self.span("trace.bookkeeping"):
                    after(rec, args, out)
            return out

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        """Duration of each ``name`` span minus the time its direct children
        cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        return [
            s["end"] - s["start"] - child.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        ]

    def median(self, name: str, key: str) -> float:
        vals = [s[key] for s in self.spans if s["name"] == name and key in s]
        return statistics.median(vals) if vals else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
