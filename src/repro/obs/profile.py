"""Span-attributed profiling: where inside each phase does time go?

The tracer answers "which span was slow"; this module answers "which
*functions* made it slow".  A :class:`Profiler` wraps one
:mod:`cProfile` session around the run and attributes cost to the
pipeline's existing trace spans:

* **span costs** — exclusive (self) vs cumulative wall-time per span
  name, computed from the span tree (a span's self time is its duration
  minus its children's);
* **phase attribution** — the profiler registers as a span listener on
  the tracer and snapshots the cProfile counters at every phase-span
  boundary (``parse`` / ``mergeability`` / ``clique_cover`` /
  ``merge_all`` / ``three_pass`` / ``signoff`` / ``sta``), so each
  phase gets its own top-N function table instead of one blended
  profile;
* **hot-loop counters** — the pipeline's innermost loops count mock
  merges, relationship comparisons, clock labels set by clock
  propagation, tag propagations and the tags among them pushed in whole
  inert sets under stable ``profile.*`` metric names; the export
  snapshots them next to the timings.

Like tracing and metrics, profiling is **ambient**
(:func:`get_profiler` / :func:`set_profiler` / :func:`profiling`): the
default is a :class:`NullProfiler` whose operations are no-ops, so a
run without ``--profile`` pays nothing.  In ``--jobs N`` runs each
forked worker profiles its own task (:meth:`Profiler.to_payload`) and
the supervisor folds the payloads back in submission order
(:meth:`Profiler.merge_payload`), so the merged profile is
deterministic for a given job count.

The exported ``profile.json`` artifact is schema-versioned
(:data:`PROFILE_SCHEMA_VERSION`, kind ``repro-profile``) and checked by
``python -m repro.obs.validate --profile``.
"""

from __future__ import annotations

import cProfile
import json
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

#: Version of the ``profile.json`` artifact.  Bump on any
#: backwards-incompatible layout change.
PROFILE_SCHEMA_VERSION = 1

#: The pipeline phases cost is attributed to.  A span belongs to a
#: phase when its name is the phase or is prefixed by ``<phase>:``
#: (``three_pass:pass2`` -> ``three_pass``); all other spans inherit
#: the innermost enclosing phase (or ``other``).
PHASES = ("parse", "mergeability", "clique_cover", "merge_all",
          "three_pass", "signoff", "sta")

_PHASE_SET = frozenset(PHASES)


def phase_for_span(name: str) -> Optional[str]:
    """The phase a span name opens, or None for non-phase spans."""
    if name in _PHASE_SET:
        return name
    head = name.partition(":")[0]
    return head if head in _PHASE_SET else None


def span_summary(tracer) -> Dict[str, List[float]]:
    """Per-span-name ``[count, cum_seconds, self_seconds]`` aggregates.

    Self (exclusive) time is the span's duration minus the sum of its
    direct children's durations, so summing self time over every span
    of a trace recovers each root's cumulative duration exactly — no
    double counting.
    """
    rows: Dict[str, List[float]] = {}
    if tracer is None or not getattr(tracer, "enabled", False):
        return rows
    for span, _depth in tracer.walk():
        duration = span.duration
        children = sum(child.duration for child in span.children)
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += max(0.0, duration - children)
    return rows


def _func_key(code) -> str:
    """Stable printable key for one profiled function."""
    if isinstance(code, str):
        return code  # C/builtin functions profile under a string label
    name = getattr(code, "co_name", None)
    if name is None:
        return repr(code)
    return f"{code.co_filename}:{code.co_firstlineno}:{name}"


class NullProfiler:
    """The disabled profiler: every operation is a no-op.

    ``enabled`` lets call sites skip even payload construction::

        if get_profiler().enabled:
            bundle["profile"] = profiler.to_payload()
    """

    enabled = False

    def start(self) -> None:
        return None

    def stop(self) -> None:
        return None

    def span_opened(self, span) -> None:
        return None

    def span_closed(self, span) -> None:
        return None


class Profiler(NullProfiler):
    """One cProfile session with per-phase attribution.

    Attach to a live tracer (``tracer.add_listener(profiler)``) so
    phase-span boundaries snapshot the profile counters; anything
    recorded between two boundaries is charged to the innermost open
    phase (``other`` outside any phase span).
    """

    enabled = True

    def __init__(self, top_n: int = 15):
        #: functions kept per phase in the export (by self time)
        self.top_n = top_n
        self._profile = cProfile.Profile()
        self._running = False
        #: flips False when the interpreter refuses our profile hooks
        #: (another profiler active); wall/span data still collected
        self._supported = True
        self._t0: Optional[float] = None
        #: wall seconds this profiler was running (this process)
        self.total_seconds = 0.0
        #: wall seconds merged in from worker payloads (overlaps
        #: ``total_seconds`` under ``--jobs``; reported separately)
        self.worker_seconds = 0.0
        #: cumulative per-function counters at the last snapshot
        self._last: Dict[str, tuple] = {}
        #: stack of open phases (span listener driven)
        self._stack: List[str] = []
        #: phase -> function key -> [calls, self_seconds, cum_seconds]
        self.phase_functions: Dict[str, Dict[str, List[float]]] = {}
        #: span aggregates folded in from worker payloads
        self.merged_spans: Dict[str, List[float]] = {}

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._t0 = time.perf_counter()
        if self._supported:
            try:
                self._profile.enable()
            except Exception:  # another profiler owns the hook
                self._supported = False

    def stop(self) -> None:
        if not self._running:
            return
        self._take(self._current_phase())
        self._running = False
        if self._t0 is not None:
            self.total_seconds += time.perf_counter() - self._t0
            self._t0 = None
        if self._supported:
            try:
                self._profile.disable()
            except Exception:
                self._supported = False

    # -- span listener protocol ----------------------------------------
    def span_opened(self, span) -> None:
        phase = phase_for_span(span.name)
        if phase is None or not self._running:
            return
        self._take(self._current_phase())
        self._stack.append(phase)

    def span_closed(self, span) -> None:
        phase = phase_for_span(span.name)
        if phase is None or not self._running:
            return
        self._take(self._current_phase())
        if self._stack and self._stack[-1] == phase:
            self._stack.pop()

    def _current_phase(self) -> str:
        return self._stack[-1] if self._stack else "other"

    def _take(self, phase: str) -> None:
        """Charge everything since the last snapshot to ``phase``."""
        if not self._supported:
            return
        try:
            self._profile.disable()
            entries = self._profile.getstats()
        except Exception:
            self._supported = False
            return
        totals: Dict[str, tuple] = {}
        for entry in entries:
            key = _func_key(entry.code)
            prev = totals.get(key)
            if prev is None:
                totals[key] = (entry.callcount, entry.inlinetime,
                               entry.totaltime)
            else:  # recursion shows one entry per frame origin
                totals[key] = (prev[0] + entry.callcount,
                               prev[1] + entry.inlinetime,
                               prev[2] + entry.totaltime)
        bucket = self.phase_functions.setdefault(phase, {})
        for key, (calls, inline, total) in totals.items():
            last = self._last.get(key, (0, 0.0, 0.0))
            d_calls = calls - last[0]
            d_inline = inline - last[1]
            d_total = total - last[2]
            if d_calls <= 0 and d_inline <= 0.0:
                continue
            row = bucket.setdefault(key, [0, 0.0, 0.0])
            row[0] += d_calls
            row[1] += d_inline
            row[2] += d_total
        self._last = totals
        if self._running:
            try:
                self._profile.enable()
            except Exception:
                self._supported = False

    # -- worker payloads ------------------------------------------------
    def to_payload(self, tracer=None) -> dict:
        """JSON-ready per-task profile for shipping worker -> parent."""
        return {
            "total_seconds": self.total_seconds,
            "phases": {phase: {key: list(row)
                               for key, row in sorted(funcs.items())}
                       for phase, funcs
                       in sorted(self.phase_functions.items())},
            "spans": {name: list(row)
                      for name, row in sorted(span_summary(tracer).items())},
        }

    def merge_payload(self, payload: dict) -> None:
        """Fold one worker's :meth:`to_payload` into this profiler.

        Addition is commutative per function, and ``merge_all`` flushes
        worker bundles strictly in analysis order, so the merged profile
        is deterministic at any completion order.
        """
        for phase, funcs in payload.get("phases", {}).items():
            bucket = self.phase_functions.setdefault(phase, {})
            for key, row in funcs.items():
                mine = bucket.setdefault(key, [0, 0.0, 0.0])
                mine[0] += row[0]
                mine[1] += row[1]
                mine[2] += row[2]
        for name, row in payload.get("spans", {}).items():
            mine = self.merged_spans.setdefault(name, [0, 0.0, 0.0])
            mine[0] += row[0]
            mine[1] += row[1]
            mine[2] += row[2]
        self.worker_seconds += float(payload.get("total_seconds", 0.0))

    # -- export ---------------------------------------------------------
    def export(self, tracer=None, metrics=None) -> dict:
        """The schema-versioned ``profile.json`` payload.

        ``tracer`` supplies this process's span tree (worker span
        aggregates merged from payloads are folded in); ``metrics``
        supplies the ``profile.*`` hot-loop counters.
        """
        spans = span_summary(tracer)
        for name, row in self.merged_spans.items():
            mine = spans.setdefault(name, [0, 0.0, 0.0])
            mine[0] += row[0]
            mine[1] += row[1]
            mine[2] += row[2]
        counters: Dict[str, float] = {}
        if metrics is not None and getattr(metrics, "enabled", False) \
                and hasattr(metrics, "names"):
            for name in metrics.names():
                if name.startswith("profile."):
                    counters[name] = metrics.counter(name)
        phases: Dict[str, dict] = {}
        for phase, funcs in sorted(self.phase_functions.items()):
            ranked = sorted(funcs.items(),
                            key=lambda kv: (-kv[1][1], -kv[1][2], kv[0]))
            phases[phase] = {
                "self_seconds": round(
                    sum(row[1] for row in funcs.values()), 9),
                "functions": len(funcs),
                "top_functions": [
                    {"function": key, "calls": int(row[0]),
                     "self_s": round(row[1], 9),
                     "cum_s": round(row[2], 9)}
                    for key, row in ranked[:self.top_n]],
            }
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "kind": "repro-profile",
            "supported": self._supported,
            "total_seconds": round(self.total_seconds, 9),
            "worker_seconds": round(self.worker_seconds, 9),
            "spans": [{"name": name, "count": int(row[0]),
                       "cum_s": round(row[1], 9),
                       "self_s": round(row[2], 9)}
                      for name, row in sorted(spans.items())],
            "phases": phases,
            "counters": counters,
        }

    def write(self, path, tracer=None, metrics=None) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(self.export(tracer=tracer,
                                                metrics=metrics),
                                    indent=2) + "\n")


#: The ambient profiler call sites fetch; no-op unless installed.
_AMBIENT: NullProfiler = NullProfiler()

def get_profiler() -> NullProfiler:
    """The ambient profiler (a no-op :class:`NullProfiler` by default)."""
    return _AMBIENT


def set_profiler(profiler: Optional[NullProfiler]) -> NullProfiler:
    """Install ``profiler`` as ambient (None restores the null profiler).

    Returns the previously installed profiler so callers can restore it.
    """
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = profiler if profiler is not None else NullProfiler()
    return previous


@contextmanager
def profiling(profiler: Optional[NullProfiler]):
    """Scope-install a profiler: ``with profiling(Profiler()) as p: ...``."""
    previous = set_profiler(profiler)
    try:
        yield get_profiler()
    finally:
        set_profiler(previous)
