"""Timing of benchmark passes, with optional span recording.

Every call the benchmark makes into a boxkit module goes through
``Timer.call``, which times it and adds the time to the request's per-call
totals; gates and input transforms run between calls and are not timed.
A recording timer also keeps one ``Span`` per call, and one per request, in
memory until the run ends.  Per-layer self time is derived from those spans
afterwards, so nothing is aggregated while a pass runs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str  # "<layer>.<call>", or "request" around one request's calls
    tag: str  # the family, instance or command the call served
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level


@dataclass
class Request:
    """One unit of work a user waits for; failed if any gate on it failed."""

    tag: str
    calls: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(f"{self.tag}: {what}")


class Timer:
    def __init__(self, record: bool) -> None:
        self.record = record
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.requests: list[Request] = []
        self._open: list[int] = []
        self._request: Request | None = None

    def call(self, name: str, tag: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if self._request is not None:
                self._request.calls[name] += end - start
            if self.record:
                self.spans.append(Span(name, tag, start, end, parent))

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    @contextmanager
    def request(self, tag: str):
        """Group the calls of one request.  An exception from the library
        fails the request and the pass goes on with the next one."""
        req = Request(tag)
        self._request = req
        if self.record:
            self._open.append(len(self.spans))
            self.spans.append(Span("request", tag, time.perf_counter(), 0.0, None))
        try:
            yield req
        except Exception as exc:  # a library failure is a failed request
            req.failures.append(f"{tag}: {type(exc).__name__}: {exc}")
        finally:
            if self.record:
                self.spans[self._open.pop()].end = time.perf_counter()
            self._request = None
            self.requests.append(req)

    @property
    def failures(self) -> list[str]:
        return [f for r in self.requests for f in r.failures]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer, span time not covered by child spans.  Children of one
    span never overlap, because the benchmark is single-threaded."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    layers: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        layers[s.name.split(".")[0]] += t
    return layers
