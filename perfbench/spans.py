"""Outside-in span tracing: wrappers installed around calls into each layer.

Nothing in the program is edited.  :class:`Patches` swaps a module-level
name or a class attribute for a traced wrapper and puts the original back
on exit; :class:`Tracer` keeps every span in memory (name, start, end,
parent span, request id, and a small ``extra`` dict) until the run writes
them out.  A layer's self time is its span minus the part of that
interval covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # 0 = no parent
    name: str
    start: float
    end: float
    rid: object = None  # request id, when the span serves one request
    extra: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span sink; thread-safe for appends from any thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def record(self, name: str, start: float, end: float, rid=None, extra=None) -> None:
        """A span measured by the caller (a wait), parented to the
        innermost open span of this thread."""
        self.spans.append(
            Span(next(self._ids), self._stack()[-1], name, start, end, rid, extra)
        )

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        note: Callable[..., dict | None] | None = None,
    ) -> Callable:
        """``fn`` traced as one span per call.

        ``name`` may be a callable of the call's arguments (for per-family
        names).  ``note(args, kwargs, result, error)`` returns the span's
        ``extra`` dict; ``error`` is the exception raised, if any.
        """
        spans, ids, clock, stack_of = self.spans, self._ids, self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                extra = note(args, kwargs, result, error) if note is not None else None
                spans.append(Span(sid, parent, label, start, end, None, extra))

        return traced

    def span(self, name: str, extra: dict | None = None) -> "_OpenSpan":
        """A ``with`` block traced as one span (for the benchmark's own
        calls, such as the build steps)."""
        return _OpenSpan(self, name, extra)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps([s.sid, s.parent, s.name, s.start, s.end, s.rid, s.extra])
                    + "\n"
                )


class _OpenSpan:
    def __init__(self, tracer: Tracer, name: str, extra: dict | None):
        self.tracer, self.name, self.extra = tracer, name, extra

    def __enter__(self) -> "_OpenSpan":
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1]
        stack.append(self.sid)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        end = self.tracer.clock()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            Span(self.sid, self.parent, self.name, self.start, end, None, self.extra)
        )


def load_spans(path) -> list[Span]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            sid, parent, name, start, end, rid, extra = json.loads(line)
            spans.append(Span(sid, parent, name, start, end, rid, extra))
    return spans


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(s.start, s.end, children.get(s.sid, []))
        for s in spans
    }


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: call count, summed duration, summed self time, and
    summed ``extra["rows"]`` (1 per call when absent)."""
    own = self_times(spans)
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.total_s += s.duration
        t.self_s += own[s.sid]
        t.rows += int((s.extra or {}).get("rows", 1))
    return out


class Patches:
    """Swap attributes for traced wrappers; restore them on exit.

    Each target is ``(owner, attribute, make)``: ``make(original)``
    returns the replacement.  The original is read from ``owner.__dict__``
    so descriptors (classmethods) are restored exactly.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        for owner, attribute, make in self.targets:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, make(getattr(owner, attribute)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
