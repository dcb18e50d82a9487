"""Span and counter recording for the traced benchmark run.

Spans are opened from the benchmark's own files: around its calls into a
module's public functions (:meth:`Tracer.span`), or by temporarily replacing
a module attribute that other modules look up at call time
(:meth:`Tracer.wrap`), for calls the program makes internally.  Spans are
aggregated in memory as they close: per name the number of calls, the total
duration and the self time (duration minus the part covered by direct child
spans).  A span nested inside an open span of the same name is folded into
it, so recursive builders are counted once.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def add(self, name, n):
        pass


class Tracer:
    def __init__(self):
        self.enabled = True  # off outside set-up and the timed rounds
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list] = []  # [name, seconds covered by children]
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name):
        if not self.enabled or self._open[name]:
            yield
            return
        frame = [name, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._open[name] -= 1
            self._stack.pop()
            self.calls[name] += 1
            self.total[name] += dt
            self.self_time[name] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def add(self, name, n):
        if self.enabled:
            self.counts[name] += n

    def wrap(self, owner, attr, name, on_call=None):
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`restore`.

        ``on_call(tracer, args, result)`` records counts taken from the
        arguments or the result of each outermost call.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled or self._open[name]:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat view: ``<span>_calls``, ``<span>_s``, ``<span>_self_s`` and
        every counter under its own name."""
        out: dict[str, float] = dict(self.counts)
        for name in self.calls:
            out[name + "_calls"] = self.calls[name]
            out[name + "_s"] = self.total[name]
            out[name + "_self_s"] = self.self_time[name]
        return out
