"""Deterministic chaos injection for the supervised executor.

Robustness claims are only as good as the faults they were tested
against.  This module injects the three infrastructure faults the
:class:`~repro.exec.supervisor.Supervisor` must contain — a worker
**crash** (the worker SIGKILLs itself), a **hang** (sleeping past the
task deadline so the supervisor has to kill the worker), and a
**corrupt** payload (a :class:`CorruptPayload` sentinel returned
instead of the task's real result) — at *deterministically chosen*
(task key, attempt) points, so a chaos run is reproducible bit-for-bit
and CI can pin seeds.  These are faults only a forked worker can have,
so chaos strikes pooled attempts only: a serial batch, and every
in-process call of a pooled one, runs exactly as without a plan.

Two ways to build a plan:

* **explicit faults** — ``ChaosPlan(faults=[ChaosFault(...)])`` or the
  spec grammar ``kind@key-glob@attempt[@seconds]``, ``;``-separated::

      crash@group:a+b@1;hang@scan:*@2@30

  injects a crash into the first attempt of the ``a+b`` group merge and
  a 30-second hang into every scan pair's second attempt;

* **seeded schedule** — ``seed:<int>[:<rate>]`` (e.g. ``seed:11:0.3``)
  derives a fault decision for every (key, attempt) pair from
  ``sha256(seed|key|attempt)``; the same seed produces the same faults
  in every process, on every platform.  Seeded faults only fire on
  attempts 1 and 2, so the engine's three attempts per task
  (``MAX_ATTEMPTS``) always recover — seeded chaos perturbs *how* a
  run executes, never *what* it produces.

The ambient plan comes from the ``REPRO_CHAOS`` environment variable
(read by :meth:`ChaosPlan.from_env`); the supervisor picks it up for
every pooled batch, so ``REPRO_CHAOS="seed:11:0.3" repro-merge --jobs 2
merge ...`` chaos-tests the real CLI.  An explicit
``SupervisorConfig(chaos=...)`` always wins over the environment, and
an empty ``ChaosPlan()`` runs a batch fault-free.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ChaosSpecError
from repro.obs.context import current

#: The three fault kinds the supervisor must contain.
FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "corrupt")

#: Storage-fault kinds applied by the result cache (``repro.cache``) at
#: its own strike points (``cache:store:pair``, ``cache:store:group``):
#: a bad-crc entry landing on disk and a truncated entry (writer died
#: mid-write).  The execution engine's :meth:`ChaosPlan.strike` ignores
#: these kinds entirely.
CACHE_FAULT_KINDS: Tuple[str, ...] = ("cache-corrupt", "cache-torn")

#: Every kind :class:`ChaosFault` accepts.
ALL_FAULT_KINDS: Tuple[str, ...] = FAULT_KINDS + CACHE_FAULT_KINDS

#: Environment variable holding the ambient chaos spec.
CHAOS_ENV = "REPRO_CHAOS"

#: Seeded faults never fire past this attempt, so a seeded plan can
#: always be outrun by an engine with more attempts than this.
SEEDED_MAX_ATTEMPT = 2


class CorruptPayload:
    """Picklable sentinel a chaos ``corrupt`` fault returns as the task
    result; the supervisor's payload validation must always reject it."""

    __slots__ = ("key", "attempt")

    def __init__(self, key: str, attempt: int):
        self.key = key
        self.attempt = attempt

    def __getstate__(self):
        return (self.key, self.attempt)

    def __setstate__(self, state):
        self.key, self.attempt = state

    def __eq__(self, other) -> bool:
        return (isinstance(other, CorruptPayload)
                and (self.key, self.attempt) == (other.key, other.attempt))

    def __repr__(self) -> str:
        return f"CorruptPayload({self.key!r}, attempt={self.attempt})"


@dataclass(frozen=True)
class ChaosFault:
    """One scheduled fault: inject ``kind`` into attempt ``attempt`` of
    every task whose key matches the glob ``pattern``."""

    kind: str
    pattern: str = "*"
    attempt: int = 1
    #: hang duration override (0 = derive from the task deadline)
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in ALL_FAULT_KINDS:
            raise ChaosSpecError(
                f"unknown chaos fault kind {self.kind!r}; "
                f"expected one of {list(ALL_FAULT_KINDS)}")
        if self.attempt < 1:
            raise ChaosSpecError("chaos fault attempt must be >= 1")

    def matches(self, key: str, attempt: int) -> bool:
        return attempt == self.attempt and fnmatch.fnmatchcase(
            key, self.pattern)

    def to_spec(self) -> str:
        spec = f"{self.kind}@{self.pattern}@{self.attempt}"
        if self.seconds:
            spec += f"@{self.seconds:g}"
        return spec


class ChaosPlan:
    """A deterministic fault schedule over (task key, attempt) pairs."""

    def __init__(self, faults: Sequence[ChaosFault] = (),
                 seed: Optional[int] = None, rate: float = 0.2):
        self.faults: List[ChaosFault] = list(faults)
        self.seed = seed
        self.rate = rate

    # -- construction ---------------------------------------------------
    @classmethod
    def seeded(cls, seed: int, rate: float = 0.2) -> "ChaosPlan":
        """A purely hash-derived schedule (see module docstring)."""
        return cls(seed=int(seed), rate=float(rate))

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> Optional["ChaosPlan"]:
        """Parse the ``REPRO_CHAOS`` grammar; None/empty -> no plan.

        Raises :class:`~repro.errors.ChaosSpecError` (a ``ValueError``
        subclass, diagnosed as ``EXE009``) on a malformed spec —
        silently ignoring a typo'd chaos request would fake test
        coverage.
        """
        if not spec or not spec.strip():
            return None
        faults: List[ChaosFault] = []
        seed: Optional[int] = None
        rate = 0.2
        for item in spec.split(";"):
            item = item.strip()
            if not item:
                continue
            if item.startswith("seed:"):
                fields = item.split(":")
                if len(fields) > 3:
                    raise ChaosSpecError(
                        f"bad chaos seed spec {item!r}; expected "
                        f"seed:<int>[:<rate>]", spec=spec)
                try:
                    seed = int(fields[1])
                    if len(fields) > 2:
                        rate = float(fields[2])
                except (IndexError, ValueError):
                    raise ChaosSpecError(
                        f"bad chaos seed spec {item!r}; expected "
                        f"seed:<int>[:<rate>]", spec=spec) from None
                if not 0.0 <= rate <= 1.0:
                    raise ChaosSpecError(
                        f"chaos rate {rate} out of range [0, 1]",
                        spec=spec)
                continue
            fields = item.split("@")
            if len(fields) not in (3, 4):
                raise ChaosSpecError(
                    f"bad chaos fault spec {item!r}; expected "
                    f"kind@key-glob@attempt[@seconds]", spec=spec)
            try:
                attempt = int(fields[2])
                seconds = float(fields[3]) if len(fields) == 4 else 0.0
            except ValueError:
                raise ChaosSpecError(
                    f"bad chaos fault spec {item!r}: attempt must be an "
                    f"int and seconds a float", spec=spec) from None
            try:
                faults.append(ChaosFault(kind=fields[0],
                                         pattern=fields[1],
                                         attempt=attempt,
                                         seconds=seconds))
            except ChaosSpecError as exc:
                raise ChaosSpecError(str(exc), spec=spec) from None
        if not faults and seed is None:
            return None
        return cls(faults=faults, seed=seed, rate=rate)

    @classmethod
    def from_env(cls) -> Optional["ChaosPlan"]:
        """The ambient plan from ``REPRO_CHAOS`` (None when unset)."""
        return cls.from_spec(os.environ.get(CHAOS_ENV, ""))

    def to_spec(self) -> str:
        """Round-trippable spec string (how plans cross a fork/exec)."""
        items = [fault.to_spec() for fault in self.faults]
        if self.seed is not None:
            items.append(f"seed:{self.seed}:{self.rate:g}")
        return ";".join(items)

    # -- schedule -------------------------------------------------------
    def fault_for(self, key: str, attempt: int) -> Optional[ChaosFault]:
        """The fault scheduled for this (key, attempt), or None.

        Explicit faults win over the seeded schedule; the first
        matching explicit fault applies.
        """
        for fault in self.faults:
            if fault.matches(key, attempt):
                return fault
        if self.seed is None or attempt > SEEDED_MAX_ATTEMPT:
            return None
        digest = hashlib.sha256(
            f"{self.seed}|{key}|{attempt}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2 ** 64
        if draw >= self.rate:
            return None
        kind = FAULT_KINDS[digest[8] % len(FAULT_KINDS)]
        return ChaosFault(kind=kind, pattern=key, attempt=attempt)

    # -- injection ------------------------------------------------------
    def strike(self, key: str, attempt: int,
               deadline: Optional[float] = None) -> Optional[CorruptPayload]:
        """Apply any scheduled fault in a pooled worker, before the task
        body runs.

        * ``crash`` — SIGKILL the worker process;
        * ``hang`` — sleep past the deadline so the supervisor must kill
          the worker;
        * ``corrupt`` — return a :class:`CorruptPayload` the caller
          must use *instead of* running the task body.

        Returns None when no fault fires or after a hang completes.
        """
        fault = self.fault_for(key, attempt)
        if fault is None:
            return None
        if fault.kind in CACHE_FAULT_KINDS:
            # Cache storage faults are applied by repro.cache at its own
            # strike points; to the execution engine they are inert.
            return None
        current().blackbox.record("chaos", fault=fault.kind, key=key,
                                  attempt=attempt)
        if fault.kind == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("unreachable")  # pragma: no cover
        if fault.kind == "hang":
            time.sleep(self._hang_seconds(fault, deadline))
            return None
        return CorruptPayload(key, attempt)

    @staticmethod
    def _hang_seconds(fault: ChaosFault, deadline: Optional[float]) -> float:
        if fault.seconds:
            return fault.seconds
        # Sleep comfortably past the deadline so the supervisor's kill
        # path is what ends the attempt, never the sleep itself.
        if deadline is not None:
            return deadline * 4 + 0.25
        return 1.0

    def __repr__(self) -> str:
        return f"ChaosPlan({self.to_spec()!r})"
