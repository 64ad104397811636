"""Watchdog budgets for the expensive refinement engines.

The 3-pass refiner and the clock-network BFS are the two places where a
pathological input can make the merge pipeline arbitrarily slow (deeply
reconvergent data networks explode pass 3; huge clock networks make every
propagation walk expensive).  A :class:`WatchdogBudget` bounds them with

* a **wall-clock** limit shared by every engine of one merge call,
* a **pass-count** limit on refinement iterations, and
* a **graph-size** limit on the clock-refinement BFS,

raising :class:`~repro.errors.BudgetExceededError` the moment a limit is
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
    """Resource limits for one merge call's refinement engines.

    All limits are optional; ``None`` disables the corresponding check.
    The wall clock starts at :meth:`start` (called once per merge) so the
    deadline covers the whole merge, not each engine separately.
    """

    #: wall-clock seconds for all refinement work of one merge call
    budget_seconds: Optional[float] = None
    #: refinement iterations of the 3-pass fix loop
    max_passes: Optional[int] = None
    #: timing-graph nodes the clock-refinement BFS may walk
    max_graph_nodes: Optional[int] = None

    _deadline: Optional[float] = field(default=None, repr=False)
    _passes_used: int = field(default=0, repr=False)

    def start(self) -> "WatchdogBudget":
        """Arm the wall clock; returns self for chaining."""
        if self.budget_seconds is not None:
            self._deadline = time.perf_counter() + self.budget_seconds
        self._passes_used = 0
        return self

    @property
    def enabled(self) -> bool:
        return (self.budget_seconds is not None
                or self.max_passes is not None
                or self.max_graph_nodes is not None)

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock seconds left on the armed budget (None = unbounded)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.perf_counter())

    def _trip(self, error: BudgetExceededError) -> None:
        obs = current()
        obs.metrics.inc("watchdog.budget_exceeded")
        if obs.tracer.enabled:
            obs.tracer.annotate(budget_exceeded=error.kind,
                                budget_engine=error.engine)
        obs.blackbox.record("watchdog", engine=error.engine,
                            limit=error.kind, detail=str(error)[:240])
        raise error

    def check_time(self, engine: str) -> None:
        """Raise when the wall-clock budget is spent."""
        if self._deadline is None:
            if self.budget_seconds is not None:
                self.start()
            else:
                return
        now = time.perf_counter()
        if now > self._deadline:
            spent = self.budget_seconds + (now - self._deadline)
            self._trip(BudgetExceededError(
                engine, "wall-clock", f"{self.budget_seconds:g}s",
                f"{spent:.3f}s"))

    def tick_pass(self, engine: str) -> None:
        """Count one refinement pass; raise past the pass limit."""
        self._passes_used += 1
        if self.max_passes is not None and self._passes_used > self.max_passes:
            self._trip(BudgetExceededError(
                engine, "pass-count", self.max_passes, self._passes_used))
        self.check_time(engine)

    def check_graph(self, node_count: int, engine: str) -> None:
        """Refuse to walk a graph larger than the size limit."""
        if self.max_graph_nodes is not None \
                and node_count > self.max_graph_nodes:
            self._trip(BudgetExceededError(
                engine, "graph-size", self.max_graph_nodes, node_count))
        self.check_time(engine)
