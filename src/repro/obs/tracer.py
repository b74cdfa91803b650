"""Span tracer and metrics registry (the observability core).

A :class:`Collector` gathers two kinds of telemetry from one run:

* **spans** — a tree of named, timestamped intervals.  Each operation
  records under a ``compress`` or ``decompress`` root span, and the
  pipeline wraps each of its stages in :func:`span` (``quantize``,
  ``entropy`` > ``huffman_encode``, ``container_write``, ...) with the
  bytes it processed as a ``bytes`` attribute.  Subsystems add their
  own spans (``tile``, ``estimate``, ``tune``).  The bench's per-stage
  table (:mod:`repro.perf.bench`) is read from this tree.
* **metrics** — counters (monotonic sums, e.g. quantization outliers),
  observations (count/sum/min/max summaries, e.g. per-tile compression
  factor) and bin-count histograms (e.g. Huffman code lengths).

A collector activates through a context variable, so the disabled
path costs one context-variable read and nothing is ever recorded
unless a caller opts in — compression output is byte-identical with and
without a collector (telemetry only observes, it never feeds encoded
bytes).

Cross-process runs serialize a worker's collector with
:meth:`Collector.to_payload` and graft it into the parent with
:meth:`Collector.merge_payload`; each worker process gets its own *lane*
(trace-viewer thread row) and worker spans keep their tile/item
attribution.  Time bases are aligned through a wall-clock anchor
captured at construction.

Clocks are injected (``clock``/``wall_clock`` constructor parameters),
which keeps encode/decode modules free of bare wall-clock reads (the
szlint SZ102 determinism rule checks this) and makes span timing
testable with fake clocks.

>>> with Collector() as col:
...     with span("outer", kind="demo"):
...         with span("inner"):
...             metric_add("things", 2)
>>> [s.name for s in col.spans], col.counters["things"]
(['outer', 'inner'], 2.0)
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Collector",
    "SpanRecord",
    "active_collector",
    "annotate",
    "metric_add",
    "metric_hist",
    "metric_observe",
    "span",
]

_ACTIVE: ContextVar["Collector | None"] = ContextVar(
    "repro_obs_active_collector", default=None
)

Attrs = dict[str, Any]


@dataclass
class SpanRecord:
    """One closed (or still-open) interval in the span tree.

    ``start``/``end`` are seconds relative to the owning collector's
    epoch (its construction instant); ``parent`` is the index of the
    enclosing span in ``Collector.spans`` (``-1`` for roots); ``lane``
    is the trace-viewer row — 0 for the collecting process, 1+ for
    merged worker processes.
    """

    name: str
    start: float
    end: float
    parent: int
    lane: int = 0
    attrs: Attrs = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


class _NullSpan:
    """Reusable no-op returned by :func:`span` when nothing collects."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanCtx:
    """Context manager recording one span on a specific collector."""

    __slots__ = ("_collector", "_name", "_attrs", "_index")

    def __init__(self, collector: "Collector", name: str, attrs: Attrs) -> None:
        self._collector = collector
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanCtx":
        self._index = self._collector.start_span(self._name, **self._attrs)
        return self

    def __exit__(self, *exc: object) -> None:
        self._collector.end_span(self._index)


class Collector:
    """Collects spans and metrics for the current context.

    Use as a (re-entrant) context manager to activate::

        with Collector() as col:
            codec.encode(data)
        report = run_report(col)

    Re-entrancy matters for the :class:`repro.api.Codec` hook: one
    collector may wrap many encode/decode calls, accumulating a single
    run's telemetry across them.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self._clock = clock
        self._epoch = clock()
        #: wall-clock instant of the epoch — aligns merged worker spans.
        self.anchor = wall_clock()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.observations: dict[str, dict[str, float]] = {}
        self.histograms: dict[str, list[int]] = {}
        #: lane -> originating process id (lane 0 is this process).
        self.lane_pids: dict[int, int] = {0: os.getpid()}
        self._stack: list[int] = []
        self._tokens: list[Token[Collector | None]] = []
        self._pid_lanes: dict[int, int] = {}

    # -- activation --------------------------------------------------------

    def __enter__(self) -> "Collector":
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, *exc: object) -> None:
        _ACTIVE.reset(self._tokens.pop())

    # -- spans -------------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    def span(self, name: str, **attrs: Any) -> _SpanCtx:
        """Context manager recording ``name`` as a child of the open span."""
        return _SpanCtx(self, name, attrs)

    def start_span(self, name: str, **attrs: Any) -> int:
        """Open a span; returns its index for :meth:`end_span`."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(SpanRecord(name, self._now(), 0.0, parent, 0, attrs))
        self._stack.append(index)
        return index

    def end_span(self, index: int) -> None:
        """Close the span opened as ``index`` (stamps its end time)."""
        self.spans[index].end = self._now()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:  # mispaired exit: drop descendants too
            del self._stack[self._stack.index(index):]

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op at root)."""
        if self._stack:
            self.spans[self._stack[-1]].attrs.update(attrs)

    # -- metrics -----------------------------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value``."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the count/sum/min/max summary ``name``."""
        obs = self.observations.get(name)
        if obs is None:
            self.observations[name] = {
                "count": 1.0, "sum": value, "min": value, "max": value,
            }
        else:
            obs["count"] += 1.0
            obs["sum"] += value
            obs["min"] = min(obs["min"], value)
            obs["max"] = max(obs["max"], value)

    def hist(self, name: str, bincounts: Sequence[int]) -> None:
        """Accumulate a bin-count histogram (element-wise, zero-padded)."""
        counts = [int(c) for c in bincounts]
        cur = self.histograms.get(name)
        if cur is None:
            self.histograms[name] = counts
        else:
            if len(counts) > len(cur):
                cur.extend([0] * (len(counts) - len(cur)))
            for i, c in enumerate(counts):
                cur[i] += c

    # -- cross-process transfer --------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe snapshot a worker sends back with its result."""
        return {
            "pid": self.lane_pids[0],
            "anchor": self.anchor,
            "spans": [
                [s.name, s.start, s.end, s.parent, s.attrs]
                for s in self.spans
            ],
            "counters": dict(self.counters),
            "observations": {
                k: dict(v) for k, v in self.observations.items()
            },
            "histograms": {k: list(v) for k, v in self.histograms.items()},
        }

    def merge_payload(
        self, payload: dict[str, Any], attrs: Attrs | None = None
    ) -> None:
        """Graft a worker's :meth:`to_payload` under the current span.

        The worker gets a stable lane (assigned by first appearance of
        its pid); its root spans are re-parented under this collector's
        innermost open span and annotated with ``attrs`` (e.g. the item
        index the parent dispatched); its span times are shifted onto
        this collector's timeline through the wall-clock anchors; its
        counters/observations/histograms fold into this collector's.
        """
        pid = int(payload["pid"])
        lane = self._pid_lanes.get(pid)
        if lane is None:
            lane = len(self._pid_lanes) + 1
            self._pid_lanes[pid] = lane
            self.lane_pids[lane] = pid
        offset = float(payload["anchor"]) - self.anchor
        base = len(self.spans)
        graft_parent = self._stack[-1] if self._stack else -1
        for name, start, end, parent, span_attrs in payload["spans"]:
            merged_attrs = dict(span_attrs)
            if parent < 0:
                if attrs:
                    merged_attrs.update(attrs)
                merged_attrs.setdefault("worker_pid", pid)
            self.spans.append(
                SpanRecord(
                    str(name),
                    float(start) + offset,
                    float(end) + offset,
                    base + int(parent) if parent >= 0 else graft_parent,
                    lane,
                    merged_attrs,
                )
            )
        for key, value in payload["counters"].items():
            self.add(str(key), float(value))
        for key, obs in payload["observations"].items():
            cur = self.observations.get(str(key))
            if cur is None:
                self.observations[str(key)] = {
                    k: float(v) for k, v in obs.items()
                }
            else:
                cur["count"] += float(obs["count"])
                cur["sum"] += float(obs["sum"])
                cur["min"] = min(cur["min"], float(obs["min"]))
                cur["max"] = max(cur["max"], float(obs["max"]))
        for key, counts in payload["histograms"].items():
            self.hist(str(key), counts)


def active_collector() -> Collector | None:
    """The collector currently gathering telemetry, if any."""
    return _ACTIVE.get()


def span(name: str, **attrs: Any) -> "_SpanCtx | _NullSpan":
    """Record a span on the active collector (no-op when none is active)."""
    collector = _ACTIVE.get()
    if collector is None:
        return _NULL_SPAN
    return _SpanCtx(collector, name, attrs)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open span, if collecting."""
    collector = _ACTIVE.get()
    if collector is not None:
        collector.annotate(**attrs)


def metric_add(name: str, value: float = 1.0) -> None:
    """Increment a counter on the active collector (no-op otherwise)."""
    collector = _ACTIVE.get()
    if collector is not None:
        collector.add(name, value)


def metric_observe(name: str, value: float) -> None:
    """Record an observation on the active collector (no-op otherwise)."""
    collector = _ACTIVE.get()
    if collector is not None:
        collector.observe(name, value)


def metric_hist(name: str, bincounts: Sequence[int]) -> None:
    """Accumulate a histogram on the active collector (no-op otherwise)."""
    collector = _ACTIVE.get()
    if collector is not None:
        collector.hist(name, bincounts)
