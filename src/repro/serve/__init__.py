"""repro.serve: a durable batch merge service.

Long-running companion to the one-shot CLI verbs: jobs (one netlist +
N SDC modes each) are submitted over a JSON API or in-process, queued
under admission control, executed over the shared supervised execution
engine, and survive crashes of the hosting process via an append-only
job journal plus the result cache each job resumes from.

Layers:

- :mod:`repro.serve.journal` — fsync-before-ack JSONL job journal with
  per-record checksums and torn-tail recovery;
- :mod:`repro.serve.jobs` — the job record, its state machine, and
  admission control (stable ``SRV0xx`` rejection codes);
- :mod:`repro.serve.service` — :class:`MergeService`: runner threads,
  retry ladder, crash resume, graceful drain, chaos strike points;
- :mod:`repro.serve.api` — stdlib ``http.server`` JSON front end;
- :mod:`repro.serve.smoke` — self-contained crash/restart smoke driver
  (``python -m repro.serve.smoke``) used by CI's chaos matrix.
"""

from repro.serve.jobs import Job, JOB_EVENTS, TERMINAL_STATES
from repro.serve.journal import JobJournal, JournalError
from repro.serve.service import MergeService, ServeConfig

__all__ = [
    "Job",
    "JOB_EVENTS",
    "JobJournal",
    "JournalError",
    "MergeService",
    "ServeConfig",
    "TERMINAL_STATES",
]
