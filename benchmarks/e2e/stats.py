"""Sample statistics and in-memory spans for the end-to-end ledger.

Nothing here knows about BGP: :func:`tail_percentile` implements the
"highest percentile with at least ten samples beyond it" rule and
:class:`Tracer` keeps spans (name, start, end, parent,
workload) in memory so a layer's *self* time — its span minus the part
its children cover — can be computed after the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: A percentile is only reported when this many samples lie beyond it.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median; raises on an empty sample (a metric with no data is a bug)."""
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """``(percentile, value)`` for the highest percentile the sample supports.

    The percentile *p* is the largest whole number with at least
    :data:`TAIL_SAMPLES` samples strictly beyond its rank; ``None`` when
    the sample is too small to have one above the median.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_SAMPLES:
        return None
    percentile = (100 * (count - TAIL_SAMPLES)) // count
    if percentile <= 50:
        return None
    # ceil(p/100 * count) samples lie at or below the cut, so at least
    # TAIL_SAMPLES lie beyond it by the choice of p.
    rank = -(-percentile * count // 100)
    return percentile, float(ordered[rank - 1])


def relative_range(values: Sequence[float]) -> float:
    """(max - min) over the median: the spread between a few repetitions."""
    if len(values) < 2:
        return 0.0
    centre = median(values)
    return (max(values) - min(values)) / centre if centre else 0.0


@dataclasses.dataclass
class Span:
    """One timed interval at a layer boundary."""

    span_id: int
    name: str
    parent: Optional[int]
    workload: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class Tracer:
    """Records nested spans in memory; written out when the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(
            span_id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            workload=self.workload,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in recording order."""
        return [span.duration for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: each span minus what its children cover."""
        return self_times(self.spans)


class NullTracer:
    """The untraced replay's tracer: same interface, records nothing."""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name.

    Children of one span never overlap each other here (the harness is
    single-threaded), so the covered part of a span is the plain sum of
    its direct children's durations.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.duration - covered.get(span.span_id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
