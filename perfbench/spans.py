"""In-memory span tracing placed around calls into the program's layers.

A :class:`Tracer` records one :class:`Span` per call: its name, start,
end and the span that was open when it began (its parent).  Spans stay
in memory until the run ends, when :func:`write_spans` saves them as
JSONL.  The benchmark never edits the program: :meth:`Tracer.patched`
swaps a layer's public function or method for a wrapper that opens a
span around the original, and restores the original on exit.

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`), so the self times of every span
under one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` becomes span ``name``.

    ``tally(args, result)``, when given, returns an amount added to the
    tracer's count ``name`` + ``.n`` after each call.
    """

    owner: object
    attr: str
    name: str
    tally: Callable[[tuple, object], int] | None = None


class Tracer:
    """Collects nested spans from a single thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self.paused = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(self, fn: Callable, name: str, tally=None) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name] += 1
            if tally is not None:
                self.counts[name + ".n"] += tally(args, result)
            return result

        return wrapped

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Run the block with wrapped functions recording nothing."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for t in targets:
                original = t.owner.__dict__[t.attr]
                originals.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(original, t.name, t.tally))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per span name."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(p.id, []).append((lo, hi))
    out: dict[str, float] = {}
    for s in spans:
        own = s.duration - _covered(children.get(s.id, []))
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def subtree(spans: Sequence[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    inside = {root.id}
    out = [root]
    # A parent starts no later than its children, so one pass in start
    # order sees every parent before its children.
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent in inside and s.id not in inside:
            inside.add(s.id)
            out.append(s)
    return out


def write_spans(path, spans: Sequence[Span], header: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"header": header}) + "\n")
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")


def read_spans(path) -> tuple[dict, list[Span]]:
    header: dict = {}
    spans: list[Span] = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if "header" in record:
                header = record["header"]
            else:
                spans.append(Span(**record))
    return header, spans
