"""Always-on flight recorder: the run's last moments, for free.

Every other observability surface (trace, metrics, decisions, profile)
is opt-in, so the runs that matter most — the ones that crash, trip a
watchdog budget, or get killed mid-merge — leave no evidence unless the
user presciently passed ``--trace``.  The :class:`BlackboxRecorder`
closes that gap: a fixed-size ring buffer that is active on **every**
run with no flags, fed by

* coarse pipeline **frames** (run, mergeability scan, per-group merges,
  sign-off repairs) recorded through a :class:`FlightLedger` that
  ``ObsContext.build`` installs as the context's decision ledger when no
  real :class:`~repro.obs.explain.DecisionLedger` was requested — frame
  call sites are unguarded, so the recorder sees them at O(groups) cost
  while the guarded O(pairs) leaf-decision sites stay off;
* **diagnostics** (the :class:`~repro.diagnostics.DiagnosticCollector`
  bridge mirrors every structured finding into the ring);
* **decisions** mirrored from a real ledger when one *is* installed
  (the recorder attaches via ``DecisionLedger.add_listener``);
* **span open/close** events mirrored from a real tracer when one is
  installed (the recorder implements the tracer-listener protocol);
* explicit chokepoint events: watchdog budget trips, chaos strikes,
  execution-engine faults, cache state notes.

On abnormal exit the ring is flushed atomically
(:func:`repro.durable.write_atomic`) as a schema-versioned
``blackbox.json`` carrying the ring contents, the open frame/span
stacks, the last cache state, an environment fingerprint and — when a
registry is passed in — a metrics snapshot.  ``repro-merge doctor
blackbox.json`` renders the forensic report; ``python -m
repro.obs.validate --blackbox`` checks the artifact.  A clean run
writes nothing.

The recorder is one field of the observability context
(:mod:`repro.obs.context`).  A pooled attempt records into a fresh ring,
and the supervisor folds it into the parent's with the other layers'
payloads (``to_payload`` / ``merge_payload``).  The per-event cost is one
small dict plus a bounded ``deque`` append;
``benchmarks/bench_obs_overhead.py`` holds it to the same <2% bound the
disabled profiler meets.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading as _threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.durable import write_atomic
from repro.obs.explain import NullDecisions

#: Version of the blackbox.json artifact.  Bump on incompatible layout
#: changes; downstream tooling dispatches on this field.
BLACKBOX_SCHEMA_VERSION = 1

#: The artifact's ``kind`` discriminator.
BLACKBOX_KIND = "repro-blackbox"

#: Ring capacity: the last N events survive to the flush.  Big enough
#: to hold the tail of a large run's group frames plus its diagnostics,
#: small enough that the resident cost is a few hundred small dicts.
DEFAULT_CAPACITY = 512

#: Evidence/detail strings are clipped so one pathological message
#: cannot blow the bounded-memory promise.
_MAX_TEXT = 240


def environment_fingerprint() -> Dict[str, Any]:
    """Enough environment to reproduce: interpreter, platform, argv."""
    import platform

    from repro import __version__

    return {
        "version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "pid": os.getpid(),
        "argv": [str(a) for a in sys.argv],
        "cwd": os.getcwd(),
    }


def _clip(text: str) -> str:
    text = str(text)
    if len(text) > _MAX_TEXT:
        return text[:_MAX_TEXT - 3] + "..."
    return text


class NullBlackbox:
    """The disabled recorder: every operation is a no-op."""

    enabled = False

    def record(self, kind: str, **fields: Any) -> None:
        return None

    def note_state(self, key: str, value: Any) -> None:
        return None

    # tracer-listener protocol
    def span_opened(self, span) -> None:
        return None

    def span_closed(self, span) -> None:
        return None

    # ledger-listener protocol
    def decision_recorded(self, decision) -> None:
        return None

    def to_payload(self) -> Optional[dict]:
        return None

    def merge_payload(self, payload: Optional[dict]) -> None:
        return None

    def export(self, reason: Optional[dict] = None, metrics=None) -> dict:
        return {}

    def flush(self, path, reason: Optional[dict] = None,
              metrics=None) -> bool:
        return False


class _FlightFrame:
    """Context manager recording one pipeline frame's open/close."""

    __slots__ = ("_recorder", "_kind", "_subject", "_start")

    def __init__(self, recorder: "BlackboxRecorder", kind: str,
                 subject: str):
        self._recorder = recorder
        self._kind = kind
        self._subject = subject
        self._start = 0.0

    def __enter__(self) -> "_FlightFrame":
        self._start = time.perf_counter()
        self._recorder._frame_opened(self._kind, self._subject)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        seconds = time.perf_counter() - self._start
        error = exc_type.__name__ if exc_type is not None else ""
        self._recorder._frame_closed(self._kind, self._subject, seconds,
                                     error)


class FlightLedger(NullDecisions):
    """A decision-ledger stand-in that feeds frames to the recorder.

    The context's ledger when the user requested no
    ``--explain``/``--report-html``: ``enabled`` stays ``False`` so every
    guarded leaf-decision site (and the ``merge_all`` record slicing)
    behaves exactly as with the null ledger, while the unguarded
    ``frame(...)`` chokepoints land in the flight recorder's ring.
    """

    enabled = False

    def __init__(self, recorder: "BlackboxRecorder"):
        self._recorder = recorder

    def frame(self, kind: str, subject: str, verdict: str = "",
              **attrs: Any) -> _FlightFrame:
        return _FlightFrame(self._recorder, kind, subject)


class BlackboxRecorder(NullBlackbox):
    """Bounded ring of the run's last N observability events."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._lock = _threading.Lock()
        #: atomic event numbering; ``dropped`` derives from it at export
        self._counter = itertools.count()
        self._extra_dropped = 0
        #: last-write-wins keyed state (cache, run summary)
        self._state: Dict[str, Any] = {}
        #: open pipeline frames as (kind, subject), outermost first
        self._frames: List[tuple] = []
        #: open trace spans mirrored from the tracer listener
        self._open_spans: List[str] = []
        #: cumulative seconds per closed frame kind (phase timings)
        self._frame_seconds: Dict[str, float] = {}
        self._epoch = time.time()
        self._t0 = time.perf_counter()

    @property
    def _seq(self) -> int:
        """Events recorded so far (the next sequence number).

        The ring keeps the newest events, so the last element always
        carries the highest sequence number handed out.
        """
        last = self._ring[-1] if self._ring else None
        return (last["seq"] + 1) if last else 0

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (plus worker-folded evictions)."""
        return self._extra_dropped + max(0, self._seq - self.capacity)

    # -- recording ------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> None:
        """Append one event to the ring.

        This is the hot path — it runs on EVERY run, flags or no flags,
        so it is deliberately lock-free: ``itertools.count`` hands out
        sequence numbers atomically, ``deque.append`` with a ``maxlen``
        is atomic under the GIL, and ``t`` stays an unrounded float
        (export rounds once per flush instead of once per event).
        """
        fields["kind"] = kind
        fields["seq"] = next(self._counter)
        fields["t"] = time.perf_counter() - self._t0
        self._ring.append(fields)

    def note_state(self, key: str, value: Any) -> None:
        """Record keyed last-write-wins state (cache/run)."""
        with self._lock:
            self._state[key] = value

    def flight_ledger(self) -> FlightLedger:
        """A :class:`FlightLedger` feeding this recorder."""
        return FlightLedger(self)

    # -- frame chokepoints (via FlightLedger) ---------------------------
    # These run on every pipeline frame of every run, so both build the
    # event dict in a single literal (no kwargs repack through record)
    # and defer rounding to export time.
    def _frame_opened(self, kind: str, subject: str) -> None:
        self._frames.append((kind, subject))
        self._ring.append({
            "kind": "frame.open", "frame": kind, "subject": subject,
            "seq": next(self._counter),
            "t": time.perf_counter() - self._t0})

    def _frame_closed(self, kind: str, subject: str, seconds: float,
                      error: str) -> None:
        frames = self._frames
        for i in range(len(frames) - 1, -1, -1):
            if frames[i] == (kind, subject):
                del frames[i]
                break
        self._frame_seconds[kind] = \
            self._frame_seconds.get(kind, 0.0) + seconds
        event: Dict[str, Any] = {
            "kind": "frame.close", "frame": kind, "subject": subject,
            "seconds": seconds, "seq": next(self._counter),
            "t": time.perf_counter() - self._t0}
        if error:
            event["error"] = error
        self._ring.append(event)

    # -- tracer-listener protocol ---------------------------------------
    def span_opened(self, span) -> None:
        self._open_spans.append(span.name)
        self.record("span.open", span=span.name)

    def span_closed(self, span) -> None:
        for i in range(len(self._open_spans) - 1, -1, -1):
            if self._open_spans[i] == span.name:
                del self._open_spans[i]
                break
        event: Dict[str, Any] = {"span": span.name}
        if span.end is not None:
            event["seconds"] = round(span.duration, 6)
        error = span.attrs.get("error")
        if error:
            event["error"] = error
        self.record("span.close", **event)

    # -- ledger-listener protocol ---------------------------------------
    def decision_recorded(self, decision) -> None:
        event: Dict[str, Any] = {"decision": decision.kind,
                                 "subject": decision.subject}
        if decision.verdict:
            event["verdict"] = decision.verdict
        if decision.evidence:
            event["evidence"] = _clip(decision.evidence[0])
        self.record("decision", **event)

    # -- worker folding -------------------------------------------------
    def to_payload(self) -> dict:
        """Serialize the ring for the result pipe (worker -> parent)."""
        with self._lock:
            return {
                "events": self._snapshot_events(),
                "dropped": self.dropped,
                "frame_seconds": dict(self._frame_seconds),
                "pid": os.getpid(),
            }

    def _snapshot_events(self) -> List[Dict[str, Any]]:
        """Copy the ring, tolerating concurrent lock-free appends."""
        for _ in range(3):
            try:
                events = [dict(e) for e in self._ring]
                break
            except RuntimeError:  # deque mutated during iteration
                continue
        else:
            events = []
        for event in events:
            t = event.get("t")
            if isinstance(t, float):
                event["t"] = round(t, 6)
            seconds = event.get("seconds")
            if isinstance(seconds, float):
                event["seconds"] = round(seconds, 6)
        return events

    def merge_payload(self, payload: Optional[dict]) -> None:
        """Fold a worker's :meth:`to_payload` ring into this one."""
        if not payload:
            return
        pid = payload.get("pid")
        for event in payload.get("events", ()):
            fields = {k: v for k, v in event.items()
                      if k not in ("seq", "t")}
            kind = fields.pop("kind", "event")
            if pid is not None:
                fields.setdefault("worker", pid)
            self.record(kind, **fields)
        with self._lock:
            self._extra_dropped += payload.get("dropped", 0)
            for kind, seconds in payload.get("frame_seconds",
                                             {}).items():
                self._frame_seconds[kind] = \
                    self._frame_seconds.get(kind, 0.0) + seconds

    # -- export / flush -------------------------------------------------
    def failing_phase(self) -> str:
        """The innermost open frame (or span) — where the run died."""
        if self._frames:
            kind, subject = self._frames[-1]
            return f"{kind} {subject}".strip()
        if self._open_spans:
            return self._open_spans[-1]
        return ""

    def export(self, reason: Optional[dict] = None, metrics=None) -> dict:
        """The ``blackbox.json`` payload, with a snapshot of ``metrics``
        when a live registry is given."""
        with self._lock:
            events = self._snapshot_events()
            payload: Dict[str, Any] = {
                "schema_version": BLACKBOX_SCHEMA_VERSION,
                "kind": BLACKBOX_KIND,
                "flushed_at": time.time(),
                "uptime_seconds": round(
                    time.perf_counter() - self._t0, 6),
                "reason": dict(reason) if reason else {"kind": "manual"},
                "environment": environment_fingerprint(),
                "events": events,
                "dropped": self.dropped,
                "open_frames": [{"kind": k, "subject": s}
                                for (k, s) in self._frames],
                "open_spans": list(self._open_spans),
                "failing_phase": "",
                "frame_seconds": {
                    k: round(v, 6)
                    for k, v in sorted(self._frame_seconds.items())},
                "state": {k: self._state[k]
                          for k in sorted(self._state)},
            }
        phase = self.failing_phase()
        if not phase:
            # Exceptions unwind every frame before the flush runs, so
            # fall back to the innermost errored close (recorded first
            # during unwinding).
            for event in events:
                if event.get("kind") == "frame.close" \
                        and event.get("error"):
                    phase = (f"{event.get('frame', '')} "
                             f"{event.get('subject', '')}").strip()
                    break
        payload["failing_phase"] = phase
        payload["metrics"] = metrics.to_dict() \
            if getattr(metrics, "enabled", False) else None
        return payload

    def flush(self, path, reason: Optional[dict] = None,
              metrics=None) -> bool:
        """Atomically write ``blackbox.json`` (:func:`write_atomic`).

        Crash-path code: failures are reported on stderr, never raised —
        the flight recorder must not mask the error it is documenting.
        """
        try:
            payload = self.export(reason=reason, metrics=metrics)
            write_atomic(path, json.dumps(payload, indent=2, default=repr)
                         + "\n")
            return True
        except Exception as exc:  # noqa: BLE001 — crash path
            print(f"cannot write blackbox to {path}: {exc}",
                  file=sys.stderr)
            return False


# ---------------------------------------------------------------------------
# doctor: the forensic report
# ---------------------------------------------------------------------------
def load_blackbox(path) -> dict:
    """Read and structurally check a ``blackbox.json``.

    Raises ``ValueError`` on anything a doctor cannot work with.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if payload.get("kind") != BLACKBOX_KIND:
        raise ValueError(f"{path}: kind is {payload.get('kind')!r}, "
                         f"expected {BLACKBOX_KIND!r}")
    if payload.get("schema_version") != BLACKBOX_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version "
            f"{payload.get('schema_version')!r} is not "
            f"{BLACKBOX_SCHEMA_VERSION}")
    if not isinstance(payload.get("events"), list):
        raise ValueError(f"{path}: missing events list")
    return payload


def causal_chain(payload: dict) -> List[str]:
    """Root -> innermost chain of what the run was doing when it died.

    Open frames give the skeleton (run -> scan/group -> step); the
    failure reason is the final link.  Frames that closed with an error
    before the flush are appended so a demoted group names itself even
    after its frame unwound.
    """
    chain = [f"[{f.get('kind', '?')}] {f.get('subject', '')}".strip()
             for f in payload.get("open_frames", ())]
    for event in payload.get("events", ()):
        if event.get("kind") == "frame.close" and event.get("error"):
            chain.append(f"[{event.get('frame', '?')}] "
                         f"{event.get('subject', '')} "
                         f"!{event['error']}")
    reason = payload.get("reason", {})
    detail = reason.get("detail", "")
    chain.append(f"[{reason.get('kind', 'unknown')}] {detail}".strip())
    return chain


def format_doctor_report(payload: dict) -> str:
    """Human-readable forensic rendering of one blackbox payload."""
    reason = payload.get("reason", {})
    env = payload.get("environment", {})
    lines = [
        "repro-merge blackbox forensic report",
        "=" * 40,
        f"reason: {reason.get('kind', 'unknown')}"
        + (f" ({reason.get('detail')})" if reason.get("detail") else ""),
        f"uptime: {payload.get('uptime_seconds', 0.0):.3f}s  "
        f"pid: {env.get('pid', '?')}  "
        f"version: {env.get('version', '?')}  "
        f"python: {env.get('python', '?')}",
        f"argv: {' '.join(env.get('argv', []))}",
    ]
    failing = payload.get("failing_phase", "")
    if failing:
        lines.append(f"failing phase: {failing}")
    lines.append("")
    lines.append("causal chain to failure:")
    for depth, link in enumerate(causal_chain(payload)):
        lines.append("  " * depth + "-> " + link)
    frame_seconds = payload.get("frame_seconds", {})
    if frame_seconds:
        lines.append("")
        lines.append("phase timings (cumulative seconds per frame kind):")
        for kind, seconds in sorted(frame_seconds.items(),
                                    key=lambda kv: -kv[1]):
            lines.append(f"  {kind:<24} {seconds:.4f}s")
    events = payload.get("events", [])
    decisions = [e for e in events if e.get("kind") in ("decision",
                                                        "frame.open",
                                                        "frame.close")]
    if decisions:
        lines.append("")
        lines.append(f"last decisions ({len(decisions)} in the ring):")
        for event in decisions[-12:]:
            if event.get("kind") == "decision":
                text = (f"[{event.get('decision')}] "
                        f"{event.get('subject', '')}")
                if event.get("verdict"):
                    text += f" -> {event['verdict']}"
                if event.get("evidence"):
                    text += f"  ({event['evidence']})"
            else:
                marker = "open" if event["kind"] == "frame.open" \
                    else "close"
                text = (f"[{event.get('frame')}] "
                        f"{event.get('subject', '')} ({marker}"
                        + (f", {event['seconds']:.4f}s"
                           if "seconds" in event else "")
                        + (f", error={event['error']}"
                           if event.get("error") else "") + ")")
            lines.append("  " + text)
    notable = [e for e in events
               if e.get("kind") in ("diagnostic", "chaos", "watchdog",
                                    "exec.fault", "signal")]
    if notable:
        lines.append("")
        lines.append("diagnostics / faults / strikes:")
        for event in notable[-12:]:
            fields = ", ".join(f"{k}={v}" for k, v in event.items()
                               if k not in ("seq", "t", "kind"))
            lines.append(f"  t+{event.get('t', 0):.3f}s "
                         f"[{event['kind']}] {fields}")
    state = payload.get("state", {})
    if state:
        lines.append("")
        lines.append("last recorded state:")
        for key in sorted(state):
            rendered = json.dumps(state[key], sort_keys=True, default=repr)
            lines.append(f"  {key}: {rendered}")
    if payload.get("dropped"):
        lines.append("")
        lines.append(f"({payload['dropped']} older event(s) dropped from "
                     f"the ring)")
    return "\n".join(lines) + "\n"

