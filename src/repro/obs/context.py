"""One observability context: the five layers a run reports to.

The tracer (:mod:`repro.obs.trace`), the metrics registry
(:mod:`repro.obs.metrics`), the decision ledger
(:mod:`repro.obs.explain`), the profiler (:mod:`repro.obs.profile`) and
the flight recorder (:mod:`repro.obs.blackbox`) travel together as one
immutable :class:`ObsContext`.  Instrumentation sites read the installed
context once with :func:`current` and use its fields::

    obs = current()
    with obs.tracer.span("merge"):
        obs.metrics.inc("merge.runs")

Every field defaults to its layer's ``Null*`` object, so a run that
installs nothing pays one call and one attribute lookup per site.
:class:`observing` scope-installs a context, or the current one with some
layers swapped; a layer given as ``None`` is switched off, which is how
mock merges keep out of the ledger (``observing(decisions=None)``).
:meth:`ObsContext.build` wires the layers to one another once.

A forked worker cannot write into its parent's collectors.  The
supervisor therefore runs each pooled attempt under
:meth:`ObsContext.for_worker` (fresh collectors for the enabled layers),
ships :meth:`ObsContext.payload` home beside the attempt's value, and
folds the accepted attempt's payload into the parent's context with
:meth:`ObsContext.fold`, in submission order.  Spans and decisions land
under the parent's current span and frame, where the work would have
recorded them had it run in-process.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.obs.blackbox import BlackboxRecorder, NullBlackbox
from repro.obs.explain import DecisionLedger, NullDecisions
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.profile import NullProfiler, Profiler
from repro.obs.trace import NullTracer, Tracer

#: Each layer's disabled implementation: a field's default, and what a
#: layer passed to :class:`observing` as ``None`` becomes.
_NULLS = {
    "tracer": NullTracer(),
    "metrics": NullMetrics(),
    "decisions": NullDecisions(),
    "profiler": NullProfiler(),
    "blackbox": NullBlackbox(),
}


@dataclass(frozen=True)
class ObsContext:
    """The tracer, metrics, decision ledger, profiler and flight recorder
    one run reports to."""

    tracer: NullTracer = _NULLS["tracer"]
    metrics: NullMetrics = _NULLS["metrics"]
    decisions: NullDecisions = _NULLS["decisions"]
    profiler: NullProfiler = _NULLS["profiler"]
    blackbox: NullBlackbox = _NULLS["blackbox"]

    @classmethod
    def build(cls, tracer: Optional[Tracer] = None,
              metrics: Optional[MetricsRegistry] = None,
              decisions: Optional[DecisionLedger] = None,
              profiler: Optional[Profiler] = None,
              blackbox: Optional[BlackboxRecorder] = None) -> "ObsContext":
        """A context of the given layers (None = off), wired together.

        The profiler and the recorder listen on the tracer, and the
        recorder on the ledger.  The ledger names each decision after
        the tracer's innermost open span.  With the recorder on but no
        ledger, a :class:`~repro.obs.blackbox.FlightLedger` stands in so
        that the pipeline's frames still reach the recorder's ring.
        """
        if tracer is not None:
            for listener in (profiler, blackbox):
                if listener is not None:
                    tracer.add_listener(listener)
        if decisions is not None:
            if tracer is not None:
                decisions.tracer = tracer
            if blackbox is not None:
                decisions.add_listener(blackbox)
        elif blackbox is not None:
            decisions = blackbox.flight_ledger()
        layers = dict(tracer=tracer, metrics=metrics, decisions=decisions,
                      profiler=profiler, blackbox=blackbox)
        return cls(**{name: layer for name, layer in layers.items()
                      if layer is not None})

    @property
    def enabled(self) -> bool:
        """Whether any layer records anything."""
        return (self.tracer.enabled or self.metrics.enabled
                or self.decisions.enabled or self.profiler.enabled
                or self.blackbox.enabled)

    # -- crossing the fork ----------------------------------------------
    def for_worker(self) -> "ObsContext":
        """Fresh collectors for this context's enabled layers, wired by
        :meth:`build`: what one pooled attempt records into."""
        if not self.enabled:
            return self
        return ObsContext.build(
            tracer=Tracer() if self.tracer.enabled else None,
            metrics=MetricsRegistry() if self.metrics.enabled else None,
            decisions=DecisionLedger() if self.decisions.enabled else None,
            profiler=Profiler() if self.profiler.enabled else None,
            blackbox=BlackboxRecorder() if self.blackbox.enabled else None)

    def payload(self) -> Optional[dict]:
        """The enabled layers' records as plain data for :meth:`fold`
        (None when no layer is enabled)."""
        out = {}
        if self.tracer.enabled:
            out["tracer"] = self.tracer.to_payload()
        if self.metrics.enabled:
            out["metrics"] = self.metrics.to_dict()
        if self.decisions.enabled:
            out["decisions"] = [d.to_dict() for d in self.decisions.records]
        if self.profiler.enabled:
            out["profiler"] = self.profiler.to_payload()
        if self.blackbox.enabled:
            out["blackbox"] = self.blackbox.to_payload()
        return out or None

    def fold(self, payload: Optional[dict]) -> None:
        """Add a worker's :meth:`payload` to this context's layers.

        Spans attach under the current span and decisions under the
        current frame; counters, profile rows and ring events add up.
        Listeners are not notified again: the worker's own recorder and
        profiler already saw its spans and decisions.
        """
        if not payload:
            return
        if self.tracer.enabled and "tracer" in payload:
            self.tracer.graft(payload["tracer"])
        if self.metrics.enabled and "metrics" in payload:
            self.metrics.merge_payload(payload["metrics"])
        if self.decisions.enabled and "decisions" in payload:
            self.decisions.graft(payload["decisions"])
        if self.profiler.enabled and "profiler" in payload:
            self.profiler.merge_payload(payload["profiler"])
        if self.blackbox.enabled and "blackbox" in payload:
            self.blackbox.merge_payload(payload["blackbox"])


#: The installed context; every layer null unless someone installs one.
_CURRENT = ObsContext()


def current() -> ObsContext:
    """The installed observability context."""
    return _CURRENT


class observing:
    """Scope-install ``context`` (default: the current one) with
    ``layers`` swapped in; a layer given as None is switched off::

        with observing(ObsContext.build(tracer=Tracer())) as obs:
            ...
        with observing(decisions=None):  # keep out of the ledger
            ...
    """

    __slots__ = ("_context", "_previous")

    def __init__(self, context: Optional[ObsContext] = None,
                 **layers) -> None:
        installed = _CURRENT if context is None else context
        changed = False
        for name, layer in layers.items():
            if layer is None:
                layers[name] = layer = _NULLS[name]
            changed = changed or getattr(installed, name) is not layer
        self._context = dataclasses.replace(installed, **layers) \
            if changed else installed

    def __enter__(self) -> ObsContext:
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self._context
        return self._context

    def __exit__(self, exc_type, exc, tb) -> None:
        global _CURRENT
        _CURRENT = self._previous
