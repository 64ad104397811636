"""Structured diagnostics and graceful-degradation policy.

The paper's flow is explicitly failure-tolerant: modes that cannot be
merged are demoted to their own group, and constraints that cannot be
translated are dropped *with a note* rather than aborting the run
(Sections 2-3.1).  This module is the substrate for that behaviour
across the whole pipeline:

* :class:`Diagnostic` — one structured finding: a stable error code, a
  severity, a source location (file / subsystem plus line) and a
  remediation hint.  Every recoverable problem anywhere in the flow
  becomes exactly one ``Diagnostic``.
* :class:`DiagnosticCollector` — an append-only sink threaded through
  the parser, the merge pipeline and the CLI; knows the worst severity
  seen and renders the one-line-per-finding report.
* :class:`DegradationPolicy` — how much failure to tolerate:
  ``STRICT`` (raise, byte-identical to the historical behaviour),
  ``LENIENT`` (recover from semantic problems: unsupported or invalid
  commands, failing merge steps) and ``PERMISSIVE`` (additionally
  recover from syntax-level damage: unparseable SDC lines).

Stable code namespace
---------------------

Codes are short, stable strings — tooling that matches on them must not
break across releases:

===========  ==============================================================
``SDC001``   unsupported SDC command (skipped under recovery)
``SDC002``   SDC syntax error (line skipped under ``PERMISSIVE``)
``SDC003``   SDC command with invalid arguments (skipped under recovery)
``SDC004``   SDC object query matched nothing where a match was required
``SDC005``   benign SDC command recorded but not modeled
``NET001``   Verilog syntax error
``NET002``   netlist consistency error (unknown cell, duplicate, wiring)
``MRG001``   a merge-pipeline step raised; the group merge was abandoned
``MRG002``   mode(s) demoted from a merge group (kept individual)
``MRG003``   merged mode left unresolved residual mismatches
``MRG004``   equivalence validation could not run or found mismatches
``TIM001``   timing-graph error (combinational loop, no clocks)
``IO001``    input file missing or unreadable
``IO002``    input file contents malformed (not decodable / not loadable)
``GEN000``   unclassified error escaping a pipeline step
``SGN001``   sign-off guard engaged: merged mode failed its validation
``SGN002``   sign-off guard localized the culprit mode(s)/constraint
``SGN003``   sign-off guard repaired the merge (constraint uniquified
             or dropped) and re-verified equivalence
``SGN004``   sign-off guard demoted mode(s) after exhausting repairs
``SGN005``   sign-off guard repair-attempt budget exhausted
``SGN006``   watchdog budget exceeded; the group degraded per policy
``SGN007``   retired with the checkpoint file (group restored); never reuse
``SGN008``   retired with the checkpoint file (file discarded); never reuse
``SGN009``   retired with the checkpoint file (torn tail); never reuse
``EXE001``   a supervised task exceeded its wall-clock deadline (retried)
``EXE002``   a worker process crashed / was killed by a signal (retried)
``EXE003``   a task returned a corrupted payload (rejected and retried)
``EXE004``   pooled attempts exhausted; task re-run serially in-process
``EXE005``   the worker pool degraded to serial in-process execution
``EXE006``   a supervised task failed after all retry attempts (demoted)
``EXE007``   deterministic chaos injection is active for this run
``EXE008``   retired with the batch merge service (stop request); never reuse
``EXE009``   the REPRO_CHAOS spec is malformed (unknown kind / bad clause)
``SRV001``   retired with the batch merge service (queue full); never reuse
``SRV002``   retired with the batch merge service (payload cap); never reuse
``SRV003``   retired with the batch merge service (journal write); never reuse
``SRV004``   retired with the batch merge service (torn journal); never reuse
``SRV005``   retired with the batch merge service (job resumed); never reuse
``SRV006``   retired with the batch merge service (draining); never reuse
``SRV007``   retired with the batch merge service (job cancelled); never reuse
``SRV008``   retired with the batch merge service (job retry); never reuse
``SRV009``   retired with the batch merge service (bad payload); never reuse
``CAC001``   result cache disabled; the run continues uncached
``CAC002``   corrupt/version-skewed cache entry quarantined, recomputed
``CAC003``   stale cache lock reclaimed from a dead owner
``CAC004``   cache lock held by a live process; writes skipped this run
``CAC005``   cache write failed (ENOSPC etc.); result was computed
             but not persisted
``CAC006``   merge group restored from the result cache
===========  ==============================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro import errors
from repro.obs.context import current


class Severity(Enum):
    """How bad a diagnostic is; ordered."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


class DegradationPolicy(Enum):
    """How much failure the pipeline tolerates before raising."""

    STRICT = "strict"          # raise on any problem (historical behaviour)
    LENIENT = "lenient"        # recover from semantic problems
    PERMISSIVE = "permissive"  # additionally recover from syntax damage

    @classmethod
    def coerce(cls, value: Union["DegradationPolicy", str, None]
               ) -> "DegradationPolicy":
        """Accept a policy, its string name, or None (-> STRICT)."""
        if value is None:
            return cls.STRICT
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown degradation policy {value!r}; expected one of "
                f"{[p.value for p in cls]}") from None

    @property
    def recovers_commands(self) -> bool:
        """Skip-and-record unsupported / invalid commands?"""
        return self is not DegradationPolicy.STRICT

    @property
    def recovers_syntax(self) -> bool:
        """Skip-and-record unparseable lines too?"""
        return self is DegradationPolicy.PERMISSIVE


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding from anywhere in the pipeline."""

    code: str
    message: str
    severity: Severity = Severity.ERROR
    #: where it came from: a file path, a mode name, or a subsystem label
    source: str = ""
    #: 1-based line number when the finding is tied to input text (0 = n/a)
    line: int = 0
    #: what the user can do about it
    hint: str = ""
    #: structured fields carried over from the originating exception
    details: Dict[str, object] = field(default_factory=dict, compare=False)

    def format(self) -> str:
        """The canonical one-line rendering."""
        where = self.source
        if self.line:
            where = f"{where}:{self.line}" if where else f"line {self.line}"
        parts = [f"[{self.code}]", self.severity.value.upper()]
        if where:
            parts.append(where)
        text = " ".join(parts) + f": {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "source": self.source,
            "line": self.line,
            "hint": self.hint,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Diagnostic":
        """Rebuild a diagnostic from its :meth:`to_dict` form."""
        return cls(
            code=record.get("code", "GEN000"),
            message=record.get("message", ""),
            severity=Severity(record.get("severity", "error")),
            source=record.get("source", ""),
            line=int(record.get("line", 0)),
            hint=record.get("hint", ""),
            details=dict(record.get("details", {})),
        )

    def __str__(self) -> str:
        return self.format()


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


#: Most specific class first — looked up along each exception's MRO.
_ERROR_CODES = [
    (errors.SdcSyntaxError, "SDC002"),
    (errors.SdcCommandError, "SDC003"),
    (errors.SdcLookupError, "SDC004"),
    (errors.SdcError, "SDC002"),
    (errors.VerilogSyntaxError, "NET001"),
    (errors.NetlistError, "NET002"),
    (errors.MergeStepError, "MRG001"),
    (errors.NotMergeableError, "MRG002"),
    (errors.BudgetExceededError, "SGN006"),
    (errors.RefinementError, "MRG003"),
    (errors.EquivalenceError, "MRG004"),
    (errors.TaskFailedError, "EXE006"),
    (errors.ChaosSpecError, "EXE009"),
    (errors.ExecError, "EXE006"),
    (errors.MergeError, "MRG001"),
    (errors.TimingError, "TIM001"),
    (FileNotFoundError, "IO001"),
    (PermissionError, "IO001"),
    (IsADirectoryError, "IO001"),
    (OSError, "IO001"),
    (UnicodeDecodeError, "IO002"),
]

_CODE_HINTS = {
    "SDC001": "remove the command or run with --policy lenient/permissive",
    "SDC002": "fix the SDC syntax at the reported line",
    "SDC003": "fix the command's arguments at the reported line",
    "IO001": "check the path exists and is readable",
    "MRG002": "the demoted mode is kept as its own sign-off mode",
    "SGN004": "the demoted mode is kept as its own sign-off mode",
    "SGN005": "raise --max-repair-attempts or fix the culprit constraint",
    "SGN006": "raise --budget-seconds or run under --policy strict to abort",
    "EXE001": "raise --budget-seconds / exec_deadline_seconds if the task "
              "legitimately needs longer",
    "EXE005": "the run continues serially; results are unaffected, only "
              "slower",
    "EXE006": "the failed task's work unit is demoted, not lost; see the "
              "accompanying MRG002 diagnostics",
    "EXE007": "unset REPRO_CHAOS to disable fault injection",
    "EXE009": "fix the REPRO_CHAOS spec: kind@key-glob@attempt[@seconds] "
              "or seed:<int>[:<rate>], ';'-separated",
    "CAC001": "results are unaffected, only uncached; free disk space "
              "or fix permissions on the cache root",
    "CAC002": "no action needed; inspect <root>/quarantine, then "
              "'repro-merge cache prune' to discard it",
    "CAC003": "no action needed; the dead owner's lock was reclaimed",
    "CAC004": "another run holds the cache lock; results are "
              "unaffected, this run just did not persist new entries",
    "CAC005": "check disk space on the cache path; the result was "
              "recomputed, not lost",
    "CAC006": "no action needed; delete the cache entry or run without "
              "--cache to force a recompute",
}


def code_for_error(exc: BaseException) -> str:
    """The stable diagnostic code for an exception (``GEN000`` fallback)."""
    # UnicodeDecodeError subclasses ValueError, not OSError; check it and
    # any other exact matches before the subclass walk.
    for err_type, code in _ERROR_CODES:
        if type(exc) is err_type:
            return code
    for err_type, code in _ERROR_CODES:
        if isinstance(exc, err_type):
            return code
    return "GEN000"


def diagnostic_from_error(exc: BaseException, source: str = "",
                          severity: Severity = Severity.ERROR,
                          hint: str = "") -> Diagnostic:
    """Build a :class:`Diagnostic` out of any exception.

    Structured fields of :class:`~repro.errors.ReproError` subclasses
    (``line``, ``reason``, ``cycle_pins``, ...) are preserved in
    ``details``; a ``line`` attribute also populates the diagnostic's
    own line number.
    """
    code = code_for_error(exc)
    details = exc.details() if isinstance(exc, errors.ReproError) else {}
    line = details.get("line", 0)
    return Diagnostic(
        code=code,
        message=str(exc),
        severity=severity,
        source=source,
        line=int(line) if isinstance(line, int) else 0,
        hint=hint or _CODE_HINTS.get(code, ""),
        details=details,
    )


#: Version of the JSON artifact written by ``DiagnosticCollector.to_dict``.
#: Bump on any backwards-incompatible change to its layout; downstream
#: tooling dispatches on this field.
DIAGNOSTICS_SCHEMA_VERSION = 1


class DiagnosticCollector:
    """Append-only sink for diagnostics, threaded through the pipeline."""

    def __init__(self, policy: Union[DegradationPolicy, str, None] = None
                 ) -> None:
        self.diagnostics: List[Diagnostic] = []
        #: the degradation policy the run used (recorded in the JSON
        #: artifact so downstream tooling can interpret the findings)
        self.policy: Optional[DegradationPolicy] = (
            DegradationPolicy.coerce(policy) if policy is not None else None)

    # -- recording ------------------------------------------------------
    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        obs = current()
        obs.metrics.inc("diagnostics.emitted")
        # Bridge into the other observability layers: an event on the
        # current trace span (diagnostics show inline in Chrome/Perfetto)
        # and a decision node in the explain ledger (diagnostics join the
        # causal chain of whatever frame emitted them).  Both are no-ops
        # unless a collector is installed.
        if obs.tracer.enabled:
            obs.tracer.event(f"diagnostic:{diagnostic.code}",
                             code=diagnostic.code,
                             severity=diagnostic.severity.value,
                             source=diagnostic.source,
                             message=diagnostic.message)
        ledger = obs.decisions
        if ledger.enabled:
            evidence = [diagnostic.message]
            if diagnostic.hint:
                evidence.append(f"hint: {diagnostic.hint}")
            ledger.decide("diagnostic", f"code:{diagnostic.code}",
                          verdict=diagnostic.severity.value,
                          evidence=evidence, source=diagnostic.source,
                          details=dict(diagnostic.details))
        # The always-on flight recorder keeps the last N diagnostics in
        # its ring regardless of flags — they are the forensic backbone
        # of a crash's blackbox.json.
        obs.blackbox.record("diagnostic", code=diagnostic.code,
                            severity=diagnostic.severity.value,
                            source=diagnostic.source,
                            message=diagnostic.message[:240])
        return diagnostic

    def report(self, code: str, message: str,
               severity: Severity = Severity.ERROR, source: str = "",
               line: int = 0, hint: str = "",
               details: Optional[Dict[str, object]] = None) -> Diagnostic:
        return self.add(Diagnostic(
            code=code, message=message, severity=severity, source=source,
            line=line, hint=hint or _CODE_HINTS.get(code, ""),
            details=dict(details) if details else {}))

    def capture(self, exc: BaseException, source: str = "",
                severity: Severity = Severity.ERROR,
                hint: str = "") -> Diagnostic:
        return self.add(diagnostic_from_error(exc, source, severity, hint))

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        for diagnostic in diagnostics:
            self.add(diagnostic)

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def worst(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics),
                   key=lambda s: s.rank)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def has_warnings(self) -> bool:
        return any(d.severity is Severity.WARNING for d in self.diagnostics)

    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 warnings, 2 errors."""
        if self.has_errors:
            return 2
        if self.has_warnings:
            return 1
        return 0

    # -- rendering ------------------------------------------------------
    def summary(self) -> str:
        """One line per finding plus a severity tally."""
        if not self.diagnostics:
            return "no diagnostics"
        lines = [d.format() for d in self.diagnostics]
        lines.append(
            f"{len(self.diagnostics)} diagnostics: "
            f"{self.count(Severity.ERROR)} errors, "
            f"{self.count(Severity.WARNING)} warnings, "
            f"{self.count(Severity.INFO)} info")
        return "\n".join(lines)

    def by_code_counts(self) -> Dict[str, int]:
        """How many findings each stable code produced."""
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """The complete collector-level artifact.

        Everything a caller needs — policy, per-severity and per-code
        counts, worst severity, the exit-code contract — is derived here
        in one place; consumers (the CLI included) must not re-derive it.
        """
        return {
            "schema_version": DIAGNOSTICS_SCHEMA_VERSION,
            "policy": self.policy.value if self.policy else None,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counts": {
                "error": self.count(Severity.ERROR),
                "warning": self.count(Severity.WARNING),
                "info": self.count(Severity.INFO),
            },
            "by_code": self.by_code_counts(),
            "worst": self.worst.value if self.worst else None,
            "exit_code": self.exit_code(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"
