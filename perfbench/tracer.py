"""In-memory span and count recorder for the traced benchmark run.

The traced run (``--trace 1``) wraps the public functions of each layer from
the benchmark's side: nothing under ``src/`` emits these spans.  A span is
``(id, name, start, end, parent, operation)``; the parent is the innermost
open span on the same thread, and the operation is the benchmark operation
in flight when the span opened (the load is one closed-loop thread, so at
most one operation is in flight at a time, and spans on server and worker
threads are attributed to it).  Spans and counts stay in memory and are
reduced when the run ends: a layer's self time is its spans' durations minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, NamedTuple


class SpanRecord(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    operation: int | None


class Tracer:
    """Records spans and counts; installs and removes function wrappers."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.counts: Counter[str] = Counter()
        self.sums: defaultdict[str, float] = defaultdict(float)
        #: Benchmark operation in flight (set by the load thread).
        self.operation: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add(self, name: str, amount: float) -> None:
        """Accumulate a measured quantity (seconds slept, lease time, ...)."""
        with self._lock:
            self.sums[name] += amount

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        operation = self.operation
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(SpanRecord(span_id, name, start, end, parent, operation))

    # -- wrapping ----------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Callable[[tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a class's method) by a
        wrapper that records a ``name`` span and counts ``name.calls``;
        ``on_return(args, kwargs, result)`` may record more counts."""
        original = owner.__dict__[attr]
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.count(f"{name}.calls")
            result = self.call(name, fn, *args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        self.patch(owner, attr, staticmethod(wrapper) if static else wrapper)

    def wrap_everywhere(self, module: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Wrap a module-level function and every ``from ... import`` alias of
        it held by another ``repro`` module, so all call sites see the span."""
        target = module.__dict__[attr]
        self.wrap(module, attr, name, **kwargs)
        wrapper = module.__dict__[attr]
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or not mod_name.startswith("repro"):
                continue
            for alias, value in list(vars(mod).items()):
                if value is target:
                    self.patch(mod, alias, wrapper)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus covered child time.

        Children run on their parent's thread and nest inside it, so the time
        they cover is the sum of their durations.
        """
        spans = list(self.spans)
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: defaultdict[str, float] = defaultdict(float)
        for span in spans:
            totals[span.name] += (span.end - span.start) - child_time[span.id]
        return dict(totals)
