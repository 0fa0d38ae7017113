"""In-memory spans recorded around the calls into each layer.

The benchmark never edits the program: :meth:`Tracer.wrap` swaps a
public function or method for a wrapper that records a span (name,
start, end, parent span, op id) and any counts, and :meth:`Tracer.restore`
puts every original back. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; patches and restores layer entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, self.clock(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = self.clock()

    def spanned(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable[[Counter, tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped to record a span called ``name`` per call, count
        the calls as ``<name>.calls`` and let ``count(counts, args, kwargs,
        result)`` add further counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr = new`` until :meth:`restore`."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def wrap(self, owner: Any, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a spanned version of itself."""
        self.patch(owner, attr, self.spanned(getattr(owner, attr), name, count))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, own = self._patched.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- summaries ---------------------------------------------------------
    def busy(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Total self time of the spans called ``name``."""
        kids: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return sum(
            self_time(s, kids.get(s.sid, [])) for s in self.spans if s.name == name
        )

    def n_spans(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def as_records(self) -> List[dict]:
        return [vars(s) for s in self.spans]


def self_time(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        a, b = max(c.start, span.start), min(c.end, span.end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``%
    of the samples at or below it."""
    if not len(values):
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    xs = sorted(values)
    rank = -(-len(xs) * p // 100)  # ceil(n p / 100)
    return float(xs[max(1, int(rank)) - 1])
