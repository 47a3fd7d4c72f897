"""The metric/event collector behind the pipeline's observability layer.

One process-wide :class:`Collector` gathers three kinds of telemetry:

* **counters** — monotonically accumulated floats keyed by a dotted metric
  name (``core.repair.ctsels_inserted``, ``artifacts.store.hits``, …);
* **timers** — ``(count, total_seconds)`` pairs fed by :func:`span`
  context managers (``opt.pass.cse``, ``build.repair``, …);
* **events** — structured records, kept in memory and, when a trace file
  is configured, streamed as JSON Lines.

The collector is **off by default** and every hook is guarded by a single
attribute check, so an untraced run pays one predicate per call site —
nothing allocates, nothing formats, nothing locks.  Two environment knobs
turn it on:

* ``REPRO_TRACE=1`` — enable in-memory counters/timers/events;
* ``REPRO_TRACE_FILE=path`` — additionally append every event to ``path``
  as JSONL (implies ``REPRO_TRACE=1``).  Files are opened in append mode,
  so worker processes forked by the parallel harness can share one file;
  every record carries the writing process's ``pid``.

Cross-process aggregation does not rely on the shared file: workers return
:func:`Collector.snapshot` dicts with their results and the parent folds
them in with :func:`Collector.merge` (see ``repro.artifacts.parallel``).

Metric names, the event schema, and the report built on top of this module
are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Optional

from repro.knobs import knob


class _NullSpan:
    """The disabled-mode span: a reusable, allocation-free context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times a ``with`` body into a named timer."""

    __slots__ = ("_collector", "name", "fields", "_started", "seconds")

    def __init__(self, collector: "Collector", name: str, fields: dict):
        self._collector = collector
        self.name = name
        self.fields = fields
        self._started = 0.0
        self.seconds = 0.0

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._started
        self._collector._finish_span(self)
        return False


class _Capture:
    """A counter-delta window: ``with OBS.capture() as cap: ...``.

    On exit, ``cap.counters`` holds the net counter increments recorded
    inside the body.  With ``force=True`` a disabled collector is enabled
    for the duration of the body and restored afterwards — events appended
    during a forced window are dropped on exit, so a nominally-untraced
    process (a fuzz worker harvesting rule-firing coverage) neither leaks
    memory nor changes observable state.
    """

    __slots__ = ("_collector", "_force", "_was_enabled", "_before",
                 "_events_before", "counters")

    def __init__(self, collector: "Collector", force: bool) -> None:
        self._collector = collector
        self._force = force
        self.counters: dict[str, float] = {}

    def __enter__(self) -> "_Capture":
        collector = self._collector
        self._was_enabled = collector.enabled
        if self._force and not self._was_enabled:
            collector.enabled = True
        with collector._lock:
            self._before = dict(collector.counters)
            self._events_before = len(collector.events)
        return self

    def __exit__(self, *exc) -> bool:
        collector = self._collector
        with collector._lock:
            after = dict(collector.counters)
            if self._force and not self._was_enabled:
                del collector.events[self._events_before:]
        if self._force and not self._was_enabled:
            collector.enabled = False
        before = self._before
        self.counters = {
            name: value - before.get(name, 0.0)
            for name, value in after.items()
            if value != before.get(name, 0.0)
        }
        return False


class Collector:
    """Counters, timers and a JSONL event sink for one process."""

    def __init__(
        self,
        enabled: bool = False,
        trace_file: Optional[str] = None,
    ) -> None:
        self.enabled = bool(enabled) or trace_file is not None
        self.trace_file = trace_file
        self.counters: dict[str, float] = {}
        self.timers: dict[str, list] = {}  # name -> [count, total_seconds]
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._sink = None

    @classmethod
    def from_env(cls) -> "Collector":
        """Build a collector from ``REPRO_TRACE``/``REPRO_TRACE_FILE``."""
        return cls(enabled=knob("REPRO_TRACE"),
                   trace_file=knob("REPRO_TRACE_FILE"))

    # -- recording -----------------------------------------------------------

    def counter(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, **fields):
        """Context manager timing its body into timer ``name``.

        Emits one ``span`` event carrying ``fields`` plus the measured
        ``seconds`` when the body finishes.  Disabled mode returns a shared
        no-op manager, so call sites never need their own guard.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, fields)

    def _finish_span(self, span: _Span) -> None:
        with self._lock:
            slot = self.timers.setdefault(span.name, [0, 0.0])
            slot[0] += 1
            slot[1] += span.seconds
        self.event(
            "span", name=span.name, seconds=round(span.seconds, 9), **span.fields
        )

    def capture(self, force: bool = False) -> _Capture:
        """Counter-delta context manager (see :class:`_Capture`).

        ``force=True`` records through a disabled collector for the body
        only — the fuzz coverage map uses this to read repair-rule and
        optimizer-pass firings without turning tracing on campaign-wide.
        """
        return _Capture(self, force)

    def event(self, kind: str, **fields) -> None:
        """Record a structured event (and stream it when a sink is set)."""
        if not self.enabled:
            return
        record = {"event": kind, "pid": os.getpid(), **fields}
        with self._lock:
            self.events.append(record)
            if self.trace_file is not None:
                if self._sink is None:
                    self._sink = open(  # noqa: SIM115 - lives with the collector
                        self.trace_file, "a", buffering=1, encoding="utf-8"
                    )
                self._sink.write(json.dumps(record, sort_keys=True) + "\n")

    # -- aggregation ---------------------------------------------------------

    def snapshot(self) -> Optional[dict]:
        """Counters and timers as one picklable dict (None when disabled).

        The snapshot is what parallel workers ship back to the parent; it
        deliberately excludes the event list (events stream through the
        shared JSONL file instead, where one is configured).
        """
        if not self.enabled:
            return None
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {name: list(pair) for name, pair in self.timers.items()},
            }

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold a :func:`snapshot` from another process into this collector."""
        if not self.enabled or not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, (count, seconds) in snapshot.get("timers", {}).items():
                slot = self.timers.setdefault(name, [0, 0.0])
                slot[0] += count
                slot[1] += seconds

    def reset(self) -> None:
        """Drop every recorded metric and event (the sink file is kept)."""
        with self._lock:
            self.counters.clear()
            self.timers.clear()
            self.events.clear()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


def read_events(path) -> list[dict]:
    """Parse a JSONL trace file back into event records."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


#: The process-wide collector every instrumented module talks to.
OBS = Collector.from_env()


def configure(enabled: Optional[bool] = None, trace_file=None) -> Collector:
    """Reconfigure the global collector in place (tests, ``lif report``).

    Passing ``enabled=None`` re-reads the environment knobs.  The existing
    collector object is mutated rather than replaced so modules holding a
    reference (``from repro.obs import OBS``) observe the change.
    """
    if enabled is None:
        fresh = Collector.from_env()
        enabled, trace_file = fresh.enabled, fresh.trace_file
    OBS.close()
    OBS.enabled = bool(enabled) or trace_file is not None
    OBS.trace_file = trace_file
    OBS.reset()
    return OBS
