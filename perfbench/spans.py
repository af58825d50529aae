"""In-memory spans recorded from outside the program.

A span is one timed call into a layer: name, start, end, the span open
around it (its parent) and the request it belongs to.  Spans stay in
memory and are written out once, when the benchmark ends.  With tracing
off, :meth:`Tracer.span` records nothing and :meth:`Tracer.patch` leaves
the module untouched, so an untraced run executes the program unchanged.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.request: Optional[int] = None
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    @contextlib.contextmanager
    def patch(self, module, attr: str, name: str, *, lazy: bool = False):
        """Time every call of ``module.attr`` as a span named ``name``.

        ``lazy`` marks a function returning an iterator: each ``next`` on
        it is timed under the same name, so lazily produced work counts.
        """
        if not self.enabled:
            yield
            return
        orig = getattr(module, attr)
        tracer = self

        def wrapped(*args, **kwargs):
            with tracer.span(name):
                out = orig(*args, **kwargs)
            return _TimedIter(out, tracer, name) if lazy else out

        setattr(module, attr, wrapped)
        try:
            yield
        finally:
            setattr(module, attr, orig)

    def totals(self, since: int = 0) -> Dict[str, float]:
        """Seconds per span name, children included."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans[since:]:
            out[s.name] += s.end - s.start
        return dict(out)

    def counts(self, since: int = 0) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for s in self.spans[since:]:
            out[s.name] += 1
        return dict(out)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


class _TimedIter:
    def __init__(self, it, tracer: Tracer, name: str) -> None:
        self._it = it
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        with self._tracer.span(self._name):
            return next(self._it)
