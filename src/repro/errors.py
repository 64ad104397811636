"""Exception hierarchy for the mode-merging library.

Every error raised by this package derives from :class:`ReproError`, so a
caller embedding the library can catch one type.  Sub-hierarchies exist per
subsystem (netlist, SDC, timing, merging) because users typically want to
treat "my design is malformed" differently from "my constraints are
malformed" and from "these modes cannot be merged".
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    def details(self) -> dict:
        """Structured fields of this error (line numbers, names, ...).

        Subclasses store their machine-readable context as instance
        attributes; this returns them as one dict so diagnostics and
        log sinks never have to re-parse ``str(exc)``.
        """
        return {key: value for key, value in vars(self).items()
                if not key.startswith("_")}


class NetlistError(ReproError):
    """Base class for netlist construction / consistency errors."""


class UnknownCellError(NetlistError):
    """A cell type name was not found in the cell library."""


class DuplicateObjectError(NetlistError):
    """An instance, net or port with the same name already exists."""

    def __init__(self, kind: str, name: str):
        super().__init__(f"duplicate {kind} {name!r}")
        self.kind = kind
        self.name = name


class ConnectivityError(NetlistError):
    """A connection request is inconsistent (missing pin, double driver...)."""


class VerilogSyntaxError(NetlistError):
    """The structural-Verilog reader hit a construct it cannot parse."""

    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


class SdcError(ReproError):
    """Base class for SDC parsing / emission errors."""


class SdcSyntaxError(SdcError):
    """Malformed SDC text (bad token, unterminated bracket, ...)."""

    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


class SdcCommandError(SdcError):
    """A syntactically valid command has invalid arguments."""

    def __init__(self, command: str, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(f"{prefix}{command}: {message}")
        self.command = command
        self.line = line


class SdcLookupError(SdcError):
    """An object query (``get_pins`` etc.) matched nothing and was required."""


class TimingError(ReproError):
    """Base class for timing-graph / STA errors."""


class CombinationalLoopError(TimingError):
    """The data network contains a cycle the analysis cannot order."""

    def __init__(self, cycle_pins):
        names = " -> ".join(cycle_pins)
        super().__init__(f"combinational loop: {names}")
        self.cycle_pins = list(cycle_pins)


class NoClockError(TimingError):
    """An operation that requires propagated clocks found none."""


class MergeError(ReproError):
    """Base class for mode-merging errors."""


class NotMergeableError(MergeError):
    """The requested modes were determined to be non-mergeable."""

    def __init__(self, mode_a: str, mode_b: str, reason: str):
        super().__init__(f"modes {mode_a!r} and {mode_b!r} are not mergeable: {reason}")
        self.mode_a = mode_a
        self.mode_b = mode_b
        self.reason = reason


class MergeStepError(MergeError):
    """A pipeline step raised while merging a group of modes.

    Wraps the original exception with the step name and the mode names
    of the group, so graceful-degradation handlers know exactly which
    stage failed and which modes to demote.
    """

    def __init__(self, step: str, mode_names, cause: BaseException):
        names = ", ".join(mode_names)
        super().__init__(
            f"step {step!r} failed merging [{names}]: {cause}")
        self.step = step
        self.mode_names = list(mode_names)
        self.cause = cause

    def details(self) -> dict:
        return {
            "step": self.step,
            "mode_names": list(self.mode_names),
            "cause": str(self.cause),
        }


class RefinementError(MergeError):
    """Refinement could not reconcile the merged mode with the originals."""


class BudgetExceededError(MergeError):
    """A watchdog budget of a refinement engine was exhausted.

    Raised by :class:`~repro.core.watchdog.WatchdogBudget` when a
    refinement engine outlives the merge's wall-clock limit (``kind`` is
    ``"wall-clock"``).  Under ``STRICT`` policy it propagates to the
    caller; under a recovery policy ``merge_all`` demotes the group
    instead of hanging.
    """

    def __init__(self, engine: str, kind: str, limit, used):
        super().__init__(
            f"{engine} exceeded its {kind} budget "
            f"({used} > {limit})")
        self.engine = engine
        self.kind = kind
        self.limit = limit
        self.used = used


class EquivalenceError(MergeError):
    """An equivalence check found a residual mismatch after refinement."""


class ExecError(ReproError):
    """A fault in the supervised parallel execution engine."""


class ChaosSpecError(ExecError, ValueError):
    """A malformed ``REPRO_CHAOS`` chaos spec.

    A typo'd chaos request must fail loudly — silently ignoring it would
    fake test coverage — and it must fail as a *diagnosed* input error
    (stable ``EXE`` code, exit 2), not a traceback from deep inside the
    supervisor.  Subclasses :class:`ValueError` so callers that predate
    the typed error keep working.
    """

    def __init__(self, message: str, spec: str = ""):
        super().__init__(message)
        self.spec = spec


class TaskFailedError(ExecError):
    """A supervised task failed and ``propagate_errors`` was requested.

    Pooled workers report task-body exceptions as strings (exception
    objects with custom constructors don't survive pickling); under
    ``propagate_errors`` the supervisor wraps that report in this error
    so STRICT callers still get a raising, typed failure.
    """

    def __init__(self, key: str, reason: str):
        super().__init__(f"task {key!r} failed: {reason}")
        self.key = key
        self.reason = reason

