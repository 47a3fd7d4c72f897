"""In-memory spans with trace, span and parent ids, and their roll-ups.

The benchmark records spans from its own code only: :class:`Instrument`
wraps public functions of the ``repro`` layers for the duration of a
traced run and restores them afterwards, so the program under test is
never edited.  Spans stay in memory until :meth:`Tracer.write` puts them
out as JSON Lines at the end of the run.

Roll-ups per layer:

* ``busy_s`` — summed duration of the layer's *outermost* spans (a span
  with no ancestor of the same layer), so a layer calling itself, such as
  ``validate_module`` calling ``validate_function``, is not counted twice;
* ``calls`` — the number of those outermost spans, i.e. entries into the
  layer;
* ``self_s`` — summed self time of all the layer's spans, where a span's
  self time is its duration minus the part of its interval that its child
  spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans and counters; one per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, layer: str, **attrs) -> Span:
        """Start a span as a child of the thread's current span.

        A span with no open parent starts a new trace.
        """
        parent = self.current()
        with self._lock:
            span_id = next(self._ids)
            trace_id = parent.trace_id if parent else next(self._traces)
        span = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            trace_id=trace_id,
            name=name,
            layer=layer,
            start=self.clock(),
            attrs=attrs,
        )
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[Span] = None, **attrs) -> Span:
        """Record a finished span measured elsewhere (e.g. by a server)."""
        with self._lock:
            span = Span(
                span_id=next(self._ids),
                parent_id=parent.span_id if parent else None,
                trace_id=parent.trace_id if parent else next(self._traces),
                name=name,
                layer=layer,
                start=start,
                end=end,
                attrs=attrs,
            )
            self.spans.append(span)
        return span

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


# -- arithmetic ----------------------------------------------------------------


def covered_length(intervals: Iterable[tuple], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(a, low), min(b, high)) for a, b in intervals if b > low and a < high
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict:
    """``span_id -> self seconds``: duration minus child coverage."""
    spans = list(spans)
    children: dict = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end)
            )
    return {
        span.span_id: max(
            0.0,
            span.duration
            - covered_length(children.get(span.span_id, ()), span.start, span.end),
        )
        for span in spans
    }


def layer_rollup(spans: Iterable[Span]) -> dict:
    """``layer -> {"busy_s", "self_s", "calls"}`` (see module docstring)."""
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)
    rollup: dict = {}
    for span in spans:
        entry = rollup.setdefault(
            span.layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        entry["self_s"] += selfs[span.span_id]
        ancestor = by_id.get(span.parent_id)
        while ancestor is not None and ancestor.layer != span.layer:
            ancestor = by_id.get(ancestor.parent_id)
        if ancestor is None:
            entry["busy_s"] += span.duration
            entry["calls"] += 1
    return rollup


# -- instrumentation -------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One public function to wrap in a span.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``before(args, kwargs)`` runs outside the span and returns a state
    handed to ``after(state, args, result, span)``, also run outside it,
    which may add attributes or counters.
    """

    target: str
    name: str
    layer: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


class Instrument:
    """Installs :class:`Probe` wrappers and removes them again.

    A module-level function is replaced wherever a loaded ``repro``
    module holds a reference to it, which covers ``from x import f``
    copies taken at import time; later lazy imports read the patched
    module attribute.
    """

    def __init__(self, tracer: Tracer, probes: Iterable[Probe],
                 package: str = "repro") -> None:
        self.tracer = tracer
        self.probes = list(probes)
        self.package = package
        self._undo: list = []

    def __enter__(self) -> "Instrument":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False

    def install(self) -> None:
        import importlib

        for probe in self.probes:
            module_name, _, path = probe.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._set(owner, method, self._wrap(original, probe))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, probe)
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "") or ""
                if not (loaded_name == self.package
                        or loaded_name.startswith(self.package + ".")):
                    continue
                namespace = getattr(loaded, "__dict__", {})
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._set(loaded, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, probe: Probe):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = probe.before(args, kwargs) if probe.before else None
            span = tracer.open(probe.name, probe.layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                tracer.close(span)
                raise
            tracer.close(span)
            if probe.after:
                probe.after(state, args, result, span)
            return result

        return wrapper
