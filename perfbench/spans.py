"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own files around calls into the
program's public functions; nothing inside ``src/`` is instrumented.  A
span has a name, a start and end in ``perf_counter_ns``, a parent span and
a trace id (one per planned program or served request).  A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    trace_id: str
    start_ns: int
    end_ns: int = 0
    parent: Optional["Span"] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def self_ms(self) -> float:
        return self.duration_ms - sum(c.duration_ms for c in self.children)


class Tracer:
    """Records nested spans; ``span()`` is a context manager."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, trace_id: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(name, trace_id or (parent.trace_id if parent else ""),
                 time.perf_counter_ns(), parent=parent)
        if parent is None:
            self.roots.append(s)
        else:
            parent.children.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, trace_id: str, start_ns: int, end_ns: int,
            parent: Optional[Span] = None) -> Span:
        """Record a span measured elsewhere (e.g. a server-reported stage)."""
        s = Span(name, trace_id, start_ns, end_ns, parent=parent)
        (parent.children if parent is not None else self.roots).append(s)
        return s

    def walk(self) -> Iterator[Span]:
        todo = list(self.roots)
        while todo:
            s = todo.pop()
            yield s
            todo.extend(s.children)

    def self_ms_by_trace(self, name: str) -> List[float]:
        """Per trace id, the summed self time of every span called ``name``."""
        per: Dict[str, float] = defaultdict(float)
        for s in self.walk():
            if s.name == name:
                per[s.trace_id] += s.self_ms
        return list(per.values())
