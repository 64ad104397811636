"""Watchdog budget for the expensive refinement engines.

The 3-pass refiner and the clock-network refinement are the two places
where a pathological input can make the merge pipeline arbitrarily slow
(deeply reconvergent data networks explode pass 3; huge clock networks
make every propagation walk expensive).  A :class:`WatchdogBudget` bounds
them with one **wall-clock** limit shared by every engine of one merge
call, raising :class:`~repro.errors.BudgetExceededError` the moment it is
crossed.  How that error surfaces is the degradation policy's business:
``STRICT`` propagates it, ``LENIENT``/``PERMISSIVE`` demote the group
with an ``SGN006`` diagnostic instead of hanging (see
``repro.core.mergeability.merge_all``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import BudgetExceededError
from repro.obs.context import current


@dataclass
class WatchdogBudget:
    """The wall-clock limit of one merge call's refinement engines.

    ``None`` disables the check.  The clock starts at :meth:`start`
    (called once per merge) so the deadline covers the whole merge, not
    each engine separately.
    """

    #: wall-clock seconds for all refinement work of one merge call
    budget_seconds: Optional[float] = None

    _deadline: Optional[float] = field(default=None, repr=False)

    def start(self) -> "WatchdogBudget":
        """Arm the wall clock; returns self for chaining."""
        if self.budget_seconds is not None:
            self._deadline = time.perf_counter() + self.budget_seconds
        return self

    @property
    def enabled(self) -> bool:
        return self.budget_seconds is not None

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock seconds left on the armed budget (None = unbounded)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.perf_counter())

    def check_time(self, engine: str) -> None:
        """Raise when the wall-clock budget is spent."""
        if self._deadline is None:
            if not self.enabled:
                return
            self.start()
        now = time.perf_counter()
        if now <= self._deadline:
            return
        error = BudgetExceededError(
            engine, "wall-clock", f"{self.budget_seconds:g}s",
            f"{self.budget_seconds + (now - self._deadline):.3f}s")
        obs = current()
        obs.metrics.inc("watchdog.budget_exceeded")
        if obs.tracer.enabled:
            obs.tracer.annotate(budget_exceeded=error.kind,
                                budget_engine=error.engine)
        obs.blackbox.record("watchdog", engine=error.engine,
                            limit=error.kind, detail=str(error)[:240])
        raise error
