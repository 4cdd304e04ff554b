"""Spans around calls into the engine's public methods.

The tracer replaces a method on its class with a wrapper that records
``(name, start, end, parent)`` while tracing is enabled, and restores
the original on :meth:`Tracer.restore`.  It lives only in the traced
run's process; the untraced run never imports this module's patches.
Parents are tracked per thread, so a chunk read on the prefetch thread
is not counted as a child of the kernel call it overlaps.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the methods passed to :meth:`wrap`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._patched: list[tuple[type, str, Any]] = []

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        describe: Callable[..., dict] | None = None,
    ) -> None:
        """Trace ``owner.attr`` as ``name``; ``describe(*args)`` may
        return attributes to keep on each span."""
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span = Span(
                name=name,
                start=0.0,
                parent=stack[-1] if stack else None,
                thread=threading.get_ident(),
                attrs=describe(*args, **kwargs) if describe is not None else {},
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped method back."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # --- aggregation ---------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def child_seconds(self) -> dict[int, float]:
        """Same-thread child time per parent span (keyed by ``id``)."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = span.parent
            if parent is not None and parent.thread == span.thread:
                covered[id(parent)] += span.seconds
        return covered

    def self_seconds(self, name: str) -> list[float]:
        """Each ``name`` span's duration minus its same-thread children."""
        covered = self.child_seconds()
        return [span.seconds - covered[id(span)] for span in self.named(name)]

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        values = (
            self.self_seconds(name)
            if self_time
            else [span.seconds for span in self.named(name)]
        )
        return 1000.0 * sum(values) / len(values) if values else 0.0

    def coverage(self, name: str) -> float:
        """Share of ``name`` spans' time covered by their children."""
        spans = self.named(name)
        total = sum(span.seconds for span in spans)
        if total == 0:
            return 0.0
        covered = self.child_seconds()
        return sum(covered[id(span)] for span in spans) / total

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans
