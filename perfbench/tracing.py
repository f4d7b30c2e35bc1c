"""In-memory spans for the traced run, and self-time arithmetic.

Spans are recorded by the benchmark around calls into the program's
layers, by replacing a module attribute with a wrapper: the name a
calling module looks up (``implbases.cli.stem_base``) is the name the
span gets. Spans opened on a worker thread with no open span of their
own take the innermost open span of the thread that made the tracer as
their parent, so trials run by a sweep's pool nest under the sweep.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        with self._lock:
            self.spans.append(Span(name, start, end, parent))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.add(name, time.perf_counter(), 0.0, self._parent())
        stack = self._stack()
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def children(self, index: int) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.parent == index]

    def wrap(self, module, attr: str,
             on_result: Callable[[int, object, tuple], None] | None = None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span named
        ``<module>.<attr>`` and then hands (span index, result, args) to
        ``on_result``."""
        original = getattr(module, attr)
        name = f"{module.__name__}.{attr}"

        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(index, result, args)
            return result

        setattr(module, attr, traced)


def _union_length(intervals: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Seconds per span name of each span's duration minus the part of
    its interval that its child spans cover (overlapping children, as
    from a thread pool, are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        covered = _union_length([(max(c.start, s.start), min(c.end, s.end))
                                 for c in children.get(i, ())])
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
    return out
