"""Spans recorded from outside the program, around calls into its layers.

A span has a name, a start, an end and a parent span. The tracer keeps the
open spans on a stack; when a span closes, its self time is its duration
minus the durations of the child spans that closed inside it, and the span
is folded into per-(name, parent name) totals. Folding as spans close keeps
memory flat: one rover mission opens about two million spans. Spans whose
names are listed in ``keep`` are also kept whole, in order, for per-call
statistics such as step times and medians.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_PARENT = ""


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: str
    self_time: float
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps callables in spans and aggregates them as they close."""

    def __init__(self, clock=time.perf_counter, keep=()):
        self.clock = clock
        self.kept: dict[str, list[Span]] = {name: [] for name in keep}
        # (name, parent name) -> [calls, total duration, total self time]
        self.totals: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``note(span, args, result)`` runs after the span closes; what it
        returns is stored on kept spans. Its run time is not charged to the
        enclosing span's self time.
        """
        clock = self.clock
        stack = self._stack
        totals = self.totals
        kept = self.kept.get(name)

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, name]  # start, time covered by children, name
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                own = duration - frame[1]
                parent = stack[-1] if stack else None
                parent_name = ROOT_PARENT if parent is None else parent[2]
                if parent is not None:
                    parent[1] += duration
                entry = totals.get((name, parent_name))
                if entry is None:
                    totals[(name, parent_name)] = [1, duration, own]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += own
            if note is not None or kept is not None:
                t_note = clock()
                span = Span(name, frame[0], end, parent_name, own)
                if note is not None:
                    span = Span(name, frame[0], end, parent_name, own, note(span, args, result))
                if kept is not None:
                    kept.append(span)
                if parent is not None:
                    parent[1] += clock() - t_note
            return result

        return traced

    def calls(self, name, parent=None) -> int:
        return sum(v[0] for (n, p), v in self.totals.items()
                   if n == name and (parent is None or p == parent))

    def total(self, name, parent=None) -> float:
        return sum(v[1] for (n, p), v in self.totals.items()
                   if n == name and (parent is None or p == parent))

    def self_total(self, name, parent=None) -> float:
        return sum(v[2] for (n, p), v in self.totals.items()
                   if n == name and (parent is None or p == parent))


@contextmanager
def patched(patches):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
