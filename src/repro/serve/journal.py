"""The durable job journal: fsync-before-ack JSONL, torn-tail tolerant.

Every job state transition the service acknowledges is first appended
here and pushed to disk (``flush`` + ``os.fsync``) before the caller
proceeds — kill -9 at any instant loses at most the record being
written, never an acked one.  The format is a header line naming the
schema, then one JSON object per line carrying a content checksum
(:func:`~repro.durable.record_crc`).  A torn tail (partial last line
from a crash mid-write) is detected on recovery, reported
(``SRV004``), and truncated away so appends continue on a clean
boundary.

Chaos: under ``REPRO_CHAOS`` the append path itself is a strike point
(key ``serve:journal:<event>``) — any matching fault is surfaced as a
:class:`JournalError` (``SRV003``), modelling a failed journal write.
The ``chaos`` records that arm service strikes are exempt: failing
them would count a one-shot fault without ever applying it.
The service fails *closed* on acknowledgement records (the client is
told, nothing is acked) and *open* on progress records (the job keeps
running; a diagnostic is recorded).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.durable import record_crc
from repro.errors import ServeError
from repro.exec.chaos import ChaosPlan
from repro.obs.metrics import get_metrics

JOURNAL_KIND = "repro-serve-journal"
JOURNAL_SCHEMA_VERSION = 1


class JournalError(ServeError):
    """A journal append could not be made durable (``SRV003``)."""

    code = "SRV003"

    def __init__(self, event: str, detail: str):
        super().__init__(f"journal write failed for {event!r}: {detail}")
        self.event = event
        self.detail = detail


class JobJournal:
    """Append-only JSONL journal of job lifecycle events."""

    def __init__(self, path: Union[str, Path],
                 chaos: Optional[ChaosPlan] = None):
        self.path = Path(path)
        self.chaos = chaos
        #: per-event append attempts in this process, for chaos matching
        self._attempts: Dict[str, int] = {}
        self._fh = None

    # -- recovery ----------------------------------------------------------

    def recover(self) -> Tuple[List[dict], int]:
        """Read every valid record; return ``(records, torn_lines)``.

        Invalid or partial lines are only tolerated at the *tail* of the
        file (the crash-mid-write signature); the file is truncated to
        the last valid boundary so subsequent appends never interleave
        with debris.  A bad line followed by good ones means real
        corruption and raises :class:`JournalError`.
        """
        if not self.path.exists():
            return [], 0
        raw = self.path.read_bytes()
        records: List[dict] = []
        good_bytes = 0
        torn = 0
        offset = 0
        line_no = 0
        saw_header = False
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            line_no += 1
            if newline == -1:
                torn = 1  # unterminated tail: the crash-mid-write signature
                break
            line = raw[offset:newline]
            record = self._parse_line(line, header=not saw_header)
            if record is None:
                if raw[newline + 1:].strip():
                    raise JournalError(
                        "recover",
                        f"corrupt record at line {line_no} of {self.path}")
                torn = 1
                break
            if not saw_header:
                saw_header = True
            elif record.get("event"):
                records.append(record)
            offset = newline + 1
            good_bytes = offset
        if torn:
            with open(self.path, "r+b") as fh:
                fh.truncate(good_bytes)
                fh.flush()
                os.fsync(fh.fileno())
            get_metrics().inc("serve.journal_torn_records", torn)
        return records, torn

    def _parse_line(self, line: bytes, header: bool) -> Optional[dict]:
        try:
            record = json.loads(line.decode())
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict):
            return None
        if header:
            if record.get("kind") != JOURNAL_KIND:
                return None
            if record.get("schema_version") != JOURNAL_SCHEMA_VERSION:
                raise JournalError(
                    "recover",
                    f"unsupported journal schema "
                    f"{record.get('schema_version')!r} in {self.path}")
            return record
        if record.get("crc") != record_crc(record):
            return None
        return record

    # -- append ------------------------------------------------------------

    def open(self) -> None:
        """Open (creating with a header if new) for appends."""
        if self._fh is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            header = {"kind": JOURNAL_KIND,
                      "schema_version": JOURNAL_SCHEMA_VERSION}
            self._fh.write(json.dumps(header, sort_keys=True) + "\n")
            self._flush()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    def append(self, event: str, job: Optional[str] = None,
               **fields) -> dict:
        """Durably append one record; returns it once fsync'd.

        Raises :class:`JournalError` when the write cannot be made
        durable — including chaos-injected failures at key
        ``serve:journal:<event>`` (any fault kind models a failed
        write; a crash fault here would loop forever across restarts
        because append attempts are necessarily process-local).
        """
        self.open()
        if event != "chaos":
            self._strike(event)
        record = dict(fields)
        record["event"] = event
        if job is not None:
            record["job"] = job
        record["crc"] = record_crc(record)
        try:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._flush()
        except OSError as exc:
            raise JournalError(event, str(exc)) from exc
        get_metrics().inc("serve.journal_appends")
        return record

    def _flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _strike(self, event: str) -> None:
        if self.chaos is None:
            return
        key = f"serve:journal:{event}"
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        fault = self.chaos.fault_for(key, attempt)
        if fault is not None:
            raise JournalError(
                event, f"chaos {fault.kind} at {key} attempt {attempt}")
