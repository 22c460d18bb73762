"""Spans around the package's public functions, recorded from outside.

A :class:`Tracer` replaces a function with a timing wrapper at the place
where its caller looks it up (``qcembed.embedding.fci_solve``, not
``qcembed.fci.fci_solve``), so nothing under ``src/`` changes.  Each
thread keeps its own stack of open spans: a span's parent is the span
open in the same thread when it started, and a span started by a pool
worker is a root of that worker's thread.  ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# counter(args, kwargs, result) -> span attributes, evaluated after the call
Counter = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, counter: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, parent=stack[-1] if stack else None, thread=threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                span.attrs = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, module: Any, attribute: str, name: str, counter: Counter | None = None) -> None:
        original = getattr(module, attribute)
        self._originals.append((module, attribute, original))
        setattr(module, attribute, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attribute, original = self._originals.pop()
            setattr(module, attribute, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span, keyed by ``id(span)``: its duration minus
    the durations of its children.  Children share the parent's thread
    and nest inside it, so their intervals are disjoint."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + span.duration
    return {id(span): span.duration - child_time.get(id(span), 0.0) for span in spans}


def enclosing(span: Span, name: str) -> Span | None:
    """Nearest ancestor of ``span`` (or the span itself) called ``name``."""
    node: Span | None = span
    while node is not None and node.name != name:
        node = node.parent
    return node
