"""Hierarchical tracing: where does a merge run spend its time?

A :class:`Tracer` records a tree of **spans**.  A span is one timed region
of the pipeline — ``merge_all``, ``mergeability``, ``step:clock_union``,
``three_pass:pass2``, ``signoff:bisect`` — with a name, exact wall-time
(``time.perf_counter`` based), and a free-form attribute dict (mode names,
group ids, constraint counts, watchdog budget remaining).  Spans nest via
a context manager::

    tracer = Tracer()
    with observing(tracer=tracer):
        with tracer.span("merge", modes=["funcA", "scan"]):
            with tracer.span("step:clock_union"):
                ...
    tracer.write("trace.json", fmt="chrome")

Two export formats:

* ``jsonl`` — one JSON object per line (a header line first), easy to
  grep and to post-process;
* ``chrome`` — the Chrome ``trace_event`` format; load the file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see the flame chart.

The tracer is one field of the observability context
(:mod:`repro.obs.context`): instrumentation sites open spans on
``current().tracer`` instead of threading a tracer argument through
every call.  The default is a :class:`NullTracer` whose ``span()``
returns a shared no-op handle — tracing disabled costs one lookup and one
method call per span site, nothing more.  A forked worker's spans cross
back to the parent as :meth:`Tracer.to_payload` and
:meth:`Tracer.graft`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterator, List, Optional

#: Version of the JSONL trace artifact's header line.  Bump on any
#: backwards-incompatible layout change.
TRACE_SCHEMA_VERSION = 1


class Span:
    """One timed region of the pipeline, with attributes and children."""

    __slots__ = ("name", "start", "end", "attrs", "children", "parent",
                 "events")

    def __init__(self, name: str, start: float,
                 parent: Optional["Span"] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List[Span] = []
        self.parent = parent
        #: point-in-time markers inside this span (diagnostics, findings);
        #: each is ``{"name": ..., "ts": seconds, "attrs": {...}}``
        self.events: List[Dict[str, Any]] = []

    @property
    def duration(self) -> float:
        """Wall-clock seconds this span covered (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def walk(self, depth: int = 0) -> Iterator[tuple]:
        """Depth-first (span, depth) pairs, children in start order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> List["Span"]:
        """Every descendant span (including self) with ``name``."""
        return [s for s, _ in self.walk() if s.name == name]

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1000:.3f} ms, "
                f"{len(self.children)} children)")


class _SpanHandle:
    """Context manager opening/closing one span on a live tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer.open_span(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.close_span(
            self._span, exc_type.__name__ if exc_type is not None else "")


class _NullSpanHandle:
    """Shared no-op handle: tracing disabled must be (almost) free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    #: duck-type the bits of Span that instrumentation touches
    attrs: Dict[str, Any] = {}


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` lets hot loops skip even the cost of building attribute
    dicts::

        if tracer.enabled:
            tracer.annotate(nodes_visited=count)
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpanHandle:
        return _NULL_SPAN

    def annotate(self, **attrs: Any) -> None:
        return None

    def event(self, name: str, **attrs: Any) -> None:
        return None

    @property
    def current(self) -> None:
        return None


class Tracer(NullTracer):
    """Records a forest of nested spans with exact wall-time."""

    enabled = True

    def __init__(self) -> None:
        #: perf_counter origin: span starts are relative to this
        self._t0 = time.perf_counter()
        #: wall-clock epoch matching ``_t0`` (for absolute timestamps)
        self.epoch = time.time()
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: span lifecycle observers (the profiler); notified on open and
        #: close.  Empty list unless someone attaches — the per-span cost
        #: of the hook is one truthiness check.
        self._listeners: List[Any] = []

    def add_listener(self, listener: Any) -> None:
        """Attach a span observer (``span_opened(span)``/``span_closed``).

        The profiler uses this to snapshot cProfile counters at phase
        boundaries without the tracer knowing anything about profiling.
        """
        self._listeners.append(listener)

    # -- recording ------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        return _SpanHandle(self, name, attrs)

    def open_span(self, name: str, attrs: Dict[str, Any]) -> Span:
        """Open a span under the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter() - self._t0, parent, attrs)
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        if self._listeners:
            for listener in self._listeners:
                listener.span_opened(span)
        return span

    def close_span(self, span: Optional[Span], error: str = "") -> None:
        """Close ``span``, ``error`` naming the exception that left it
        (``attrs.error``)."""
        end = time.perf_counter() - self._t0
        if span is None:
            return
        if error:
            span.attrs.setdefault("error", error)
        span.end = end
        # Tolerate mis-nested exits: pop up to and including the span.
        closed: List[Span] = []
        while self._stack:
            top = self._stack.pop()
            if top is span:
                closed.append(top)
                break
            if top.end is None:
                top.end = end
            closed.append(top)
        if self._listeners:
            # innermost first, so listeners see force-closed spans too
            for closed_span in closed:
                for listener in self._listeners:
                    listener.span_closed(closed_span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time marker on the innermost open span.

        Diagnostics use this to appear inline in Chrome/Perfetto traces
        (``[SDC002]`` next to the parse span that hit it).  Dropped when
        no span is open — events always belong to a region of the run.
        """
        if self._stack:
            self._stack[-1].events.append({
                "name": name,
                "ts": time.perf_counter() - self._t0,
                "attrs": dict(attrs),
            })

    # -- queries --------------------------------------------------------
    def walk(self) -> Iterator[tuple]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        return [s for s, _ in self.walk() if s.name == name]

    def span_names(self) -> List[str]:
        return [s.name for s, _ in self.walk()]

    # -- crossing the fork ----------------------------------------------
    def to_payload(self) -> List[dict]:
        """The span forest as plain data for :meth:`graft` in another
        process, timed on the ``perf_counter`` clock processes share."""
        def record(span: Span) -> dict:
            return {
                "name": span.name,
                "start": self._t0 + span.start,
                "end": None if span.end is None else self._t0 + span.end,
                "attrs": _jsonable(span.attrs),
                "events": [{"name": event["name"],
                            "ts": self._t0 + event["ts"],
                            "attrs": _jsonable(event["attrs"])}
                           for event in span.events],
                "children": [record(child) for child in span.children],
            }

        return [record(root) for root in self.roots]

    def graft(self, records: List[dict]) -> None:
        """Re-record another tracer's :meth:`to_payload` spans here.

        Roots attach under the innermost open span (or as roots), where
        the work would have recorded them had it run in this process;
        times are rebased onto this tracer's origin.  Listeners are not
        notified: the recording process's own listeners saw the spans.
        """
        def attach(record: dict, parent: Optional[Span]) -> None:
            span = Span(record["name"], record["start"] - self._t0,
                        parent, record["attrs"])
            if record["end"] is not None:
                span.end = record["end"] - self._t0
            span.events = [{"name": event["name"],
                            "ts": event["ts"] - self._t0,
                            "attrs": event["attrs"]}
                           for event in record["events"]]
            (parent.children if parent is not None
             else self.roots).append(span)
            for child in record["children"]:
                attach(child, span)

        for record in records:
            attach(record, self.current)

    # -- export ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """One header line plus one line per span, depth-first."""
        lines = [json.dumps({
            "schema_version": TRACE_SCHEMA_VERSION,
            "kind": "repro-trace",
            "epoch": self.epoch,
        })]
        for span, depth in self.walk():
            record = {
                "name": span.name,
                "start_s": round(span.start, 9),
                "dur_s": round(span.duration, 9),
                "depth": depth,
                "parent": span.parent.name if span.parent else None,
                "attrs": _jsonable(span.attrs),
            }
            if span.events:
                record["events"] = [{
                    "name": event["name"],
                    "ts_s": round(event["ts"], 9),
                    "attrs": _jsonable(event["attrs"]),
                } for event in span.events]
            lines.append(json.dumps(record))
        return "\n".join(lines) + "\n"

    def to_chrome(self) -> str:
        """Chrome ``trace_event`` JSON for chrome://tracing / Perfetto."""
        pid = os.getpid()
        events = []
        for span, _depth in self.walk():
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": _jsonable(span.attrs),
            })
            for marker in span.events:
                events.append({
                    "name": marker["name"],
                    "cat": "repro",
                    "ph": "i",
                    "s": "t",
                    "ts": round(marker["ts"] * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": _jsonable(marker["attrs"]),
                })
        return json.dumps({"traceEvents": events,
                           "displayTimeUnit": "ms"}, indent=1) + "\n"

    def export(self, fmt: str = "jsonl") -> str:
        if fmt == "jsonl":
            return self.to_jsonl()
        if fmt == "chrome":
            return self.to_chrome()
        raise ValueError(f"unknown trace format {fmt!r}; "
                         f"expected 'jsonl' or 'chrome'")

    def write(self, path, fmt: str = "jsonl") -> None:
        with open(path, "w") as handle:
            handle.write(self.export(fmt))

    def format_tree(self, min_ms: float = 0.0) -> str:
        """Human-readable indented span tree with durations."""
        lines = []
        for span, depth in self.walk():
            ms = span.duration * 1000
            if ms < min_ms and depth > 0:
                continue
            attrs = ""
            if span.attrs:
                attrs = "  " + ", ".join(
                    f"{k}={v}" for k, v in sorted(span.attrs.items()))
            lines.append(f"{'  ' * depth}{span.name}: {ms:.2f} ms{attrs}")
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)

