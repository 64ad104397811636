"""Job records, the lifecycle state machine, and admission control.

A job walks a small explicit state machine; each edge corresponds to
exactly one journal event, so a journal replay IS a state-machine
replay and any sequence the machine rejects means a lost or duplicated
transition:

========== ============== =============================================
event      new state      meaning
========== ============== =============================================
submit     queued         accepted and durably acked to the client
admit      admitted       claimed by a runner thread
start      running        merge attempt began
progress   running        N of M groups merged (running self-loop)
retry      admitted       attempt failed; backing off for another try
finalize   checkpointing  merge done; artifacts being written
finish     done           artifacts durable — terminal
fail       failed         retries exhausted — terminal
cancel     cancelled      client cancel honoured — terminal
resume     queued         re-enqueued after a service restart
========== ============== =============================================

Admission rejections carry stable codes surfaced both at the HTTP
layer (as the mapped status) and in diagnostics: ``SRV001`` queue
full (429), ``SRV002`` payload too large (413), ``SRV006`` draining
(503), ``SRV009`` malformed payload (400).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.durable import write_atomic
from repro.errors import AdmissionError

#: journal event -> state it moves the job to
JOB_EVENTS: Dict[str, str] = {
    "submit": "queued",
    "admit": "admitted",
    "start": "running",
    "progress": "running",
    "retry": "admitted",
    "finalize": "checkpointing",
    "finish": "done",
    "fail": "failed",
    "cancel": "cancelled",
    "resume": "queued",
}

TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: state -> events legal from it (None = no job yet)
VALID_EVENTS: Dict[Optional[str], frozenset] = {
    None: frozenset({"submit"}),
    "queued": frozenset({"admit", "cancel", "resume"}),
    "admitted": frozenset({"start", "cancel", "resume"}),
    "running": frozenset({"progress", "finalize", "retry", "fail",
                          "cancel", "resume"}),
    "checkpointing": frozenset({"finish", "fail", "retry", "cancel",
                                "resume"}),
    "done": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}


class InvalidTransition(ValueError):
    """A journal replay hit an event illegal from the current state."""


@dataclass
class Job:
    """One submitted merge job and its live bookkeeping."""

    id: str
    seq: int
    root: Path
    state: Optional[str] = None
    mode_names: List[str] = field(default_factory=list)
    attempts: int = 0
    error: str = ""
    #: groups merged so far / total groups (from ``progress`` events)
    progress_done: int = 0
    progress_total: int = 0
    created: float = 0.0
    updated: float = 0.0
    artifacts: List[str] = field(default_factory=list)
    #: replay gaps tolerated for this job (events whose predecessor
    #: record failed open and never reached the journal)
    anomalies: List[str] = field(default_factory=list)
    #: set by ``cancel`` on a running job; polled by the execution engine
    cancel_event: threading.Event = field(default_factory=threading.Event,
                                          repr=False, compare=False)

    @property
    def directory(self) -> Path:
        return self.root / "jobs" / self.id

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def apply(self, event: str, record: Optional[dict] = None,
              force: bool = False) -> None:
        """Advance the state machine by one journal event.

        ``force`` applies an out-of-sequence event anyway (recording
        the gap in :attr:`anomalies`) — the replay posture when a
        progress append is known to have failed open earlier.
        """
        if event not in JOB_EVENTS:
            raise InvalidTransition(
                f"job {self.id}: unknown event {event!r}")
        if event not in VALID_EVENTS[self.state]:
            message = (f"job {self.id}: event {event!r} illegal in state "
                       f"{self.state!r}")
            if not force:
                raise InvalidTransition(message)
            self.anomalies.append(message)
        self.state = JOB_EVENTS[event]
        record = record or {}
        if event == "submit":
            self.mode_names = list(record.get("modes", self.mode_names))
            self.created = float(record.get("t", self.created))
        if event in ("start", "retry"):
            self.attempts = int(record.get("attempt", self.attempts))
        if event == "progress":
            self.progress_done = int(record.get("done", self.progress_done))
            self.progress_total = int(record.get("total",
                                                 self.progress_total))
        if event == "fail":
            self.error = str(record.get("error", self.error)) or self.error
        if event in ("fail", "finish"):
            # failed jobs may retain forensic artifacts (blackbox.json)
            self.artifacts = list(record.get("artifacts", self.artifacts))
        self.updated = float(record.get("t", time.time()))

    def status(self) -> dict:
        """JSON-safe snapshot for the API and CLI."""
        return {
            "id": self.id,
            "seq": self.seq,
            "state": self.state,
            "modes": list(self.mode_names),
            "attempts": self.attempts,
            "error": self.error,
            "progress": {"done": self.progress_done,
                         "total": self.progress_total},
            "artifacts": list(self.artifacts),
            "created": self.created,
            "updated": self.updated,
        }


def job_id_for(seq: int, netlist_text: str, sdc_texts: Dict[str, str]) -> str:
    """Deterministic id: submission ordinal + content digest."""
    digest = hashlib.sha256()
    digest.update(netlist_text.encode())
    for name in sorted(sdc_texts):
        digest.update(b"\x00" + name.encode() + b"\x00")
        digest.update(sdc_texts[name].encode())
    return f"job-{seq:04d}-{digest.hexdigest()[:12]}"


def validate_payload(payload: object, max_payload_bytes: int) -> dict:
    """Admission-check one submission; returns the normalized payload.

    Raises :class:`~repro.errors.AdmissionError` with ``SRV009`` for
    shape problems and ``SRV002`` for size-cap violations.
    """
    if not isinstance(payload, dict):
        raise AdmissionError("SRV009", "payload must be a JSON object", 400)
    netlist = payload.get("netlist")
    modes = payload.get("modes")
    options = payload.get("options", {})
    if not isinstance(netlist, str) or not netlist.strip():
        raise AdmissionError(
            "SRV009", "payload needs a non-empty 'netlist' string", 400)
    if not isinstance(modes, dict) or not modes:
        raise AdmissionError(
            "SRV009",
            "payload needs a non-empty 'modes' object of name -> SDC text",
            400)
    for name, text in modes.items():
        if not isinstance(name, str) or not name \
                or not isinstance(text, str):
            raise AdmissionError(
                "SRV009", "every mode needs a string name and SDC text", 400)
    if not isinstance(options, dict):
        raise AdmissionError("SRV009", "'options' must be an object", 400)
    size = len(netlist.encode()) + sum(
        len(name.encode()) + len(text.encode())
        for name, text in modes.items())
    if max_payload_bytes and size > max_payload_bytes:
        raise AdmissionError(
            "SRV002",
            f"payload of {size} bytes exceeds the cap of "
            f"{max_payload_bytes} bytes", 413)
    return {"netlist": netlist, "modes": dict(modes),
            "options": dict(options)}


def replay(records: List[dict], root: Path,
           strict: bool = False) -> Dict[str, Job]:
    """Rebuild the job table from recovered journal records.

    ``submit`` records are fail-closed (fsync'd before the ack), so a
    job always starts with one; later *progress* records fail open
    under journal faults, which can leave gaps.  By default a gap is
    tolerated — the event is force-applied and noted in the job's
    ``anomalies``.  ``strict=True`` (tests without journal chaos)
    raises :class:`InvalidTransition` instead: any gap there means a
    lost or duplicated journal write.
    """
    jobs: Dict[str, Job] = {}
    for record in records:
        event = record.get("event")
        if event not in JOB_EVENTS:
            continue  # meta records (chaos marks, shutdown) carry no state
        job_id = record.get("job")
        if not isinstance(job_id, str):
            raise InvalidTransition(f"event {event!r} without a job id")
        job = jobs.get(job_id)
        if job is None:
            if event != "submit":
                raise InvalidTransition(
                    f"job {job_id}: first journal event is {event!r}, "
                    f"not 'submit'")
            job = Job(id=job_id, seq=int(record.get("seq", len(jobs) + 1)),
                      root=root)
            jobs[job_id] = job
        job.apply(event, record, force=not strict)
    return jobs


def dump_payload(directory: Path, payload: dict) -> Path:
    """Durably write the submission inputs next to the job."""
    target = directory / "input.json"
    write_atomic(target, json.dumps(payload, sort_keys=True))
    return target
