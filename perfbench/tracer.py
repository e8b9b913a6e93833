"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`Tracer` wraps public functions and methods of the program so
each call becomes a span: name, duration, the enclosing span on the
same thread, and the self time (duration minus the time its direct
children cover).  Spans are kept in memory and aggregated when the run
ends; nothing under ``src/`` is modified on disk, and nothing is
wrapped in an untraced run.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class SpanStats:
    """Aggregates of one span name."""

    __slots__ = ("count", "total", "self_total", "durations")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations: List[float] = []


class Tracer:
    """Thread-aware span recorder fed by function wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: Dict[str, SpanStats] = {}
        #: (child, ancestor) name pairs -> count, for "called from" ratios.
        self.nested: Dict[Tuple[str, str], int] = {}
        #: Seconds spent in spans opened with no enclosing span.
        self.top: Dict[str, float] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        """A wrapper of ``fn`` that records one ``name`` span per call;
        ``on_result`` sees each returned value."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]  # name, time covered by direct children
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer._finish(name, duration, duration - frame[1],
                               tuple({f[0] for f in stack}))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _finish(self, name: str, duration: float, self_time: float,
                ancestors: tuple) -> None:
        with self._lock:
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stats.count += 1
            stats.total += duration
            stats.self_total += self_time
            stats.durations.append(duration)
            if not ancestors:
                self.top[name] = self.top.get(name, 0.0) + duration
            for ancestor in ancestors:
                key = (name, ancestor)
                self.nested[key] = self.nested.get(key, 0) + 1

    # -- installing wrappers --------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (a plain function attribute) in place."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def wrap_function(self, original: Callable, name: str,
                      on_result: Optional[Callable] = None) -> None:
        """Wrap a module-level function everywhere it was imported.

        Callers bind names at import time (``from ..spice import
        transient``), so every loaded ``repro`` module holding the same
        function object gets the wrapper.
        """
        wrapper = self.wrap(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading --------------------------------------------------------
    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def count_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (transitively) inside an ``ancestor``."""
        return self.nested.get((name, ancestor), 0)
