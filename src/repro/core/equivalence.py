"""Constraint-set equivalence checking (paper Section 2).

Two constraint sets are equivalent iff they induce the same timing
relationships on the design.  ``check_equivalence`` verifies that a merged
mode times exactly what the union of its individual modes times — the
validation the merge pipeline runs on its own output, also usable
standalone to audit hand-written superset modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.steps import MergeContext
from repro.core.three_pass import ThreePassRefiner
from repro.core.watchdog import WatchdogBudget
from repro.netlist.netlist import Netlist
from repro.obs.context import current
from repro.sdc.mode import Mode


@dataclass
class EquivalenceReport:
    """Outcome of an equivalence check."""

    equivalent: bool
    mismatches: List[str] = field(default_factory=list)
    compared_mode_names: List[str] = field(default_factory=list)
    merged_mode_name: str = ""

    def summary(self, limit: Optional[int] = 20) -> str:
        """Human-readable report; ``limit`` caps the mismatch listing.

        The header always carries the *true* total mismatch count, so a
        truncated listing (``limit`` mismatches shown, default 20;
        ``None`` shows all) never hides the size of the problem.
        """
        total = len(self.mismatches)
        status = "EQUIVALENT" if self.equivalent else (
            f"NOT EQUIVALENT ({total} mismatches)")
        lines = [
            f"{self.merged_mode_name!r} vs modes "
            f"{self.compared_mode_names}: {status}",
        ]
        shown = self.mismatches if limit is None else self.mismatches[:limit]
        lines.extend(f"  mismatch: {m}" for m in shown)
        if len(shown) < total:
            lines.append(f"  ... {total - len(shown)} more "
                         f"(of {total} total)")
        return "\n".join(lines)


def check_equivalence(context: MergeContext,
                      budget: Optional[WatchdogBudget] = None
                      ) -> EquivalenceReport:
    """Check a merge context's merged mode against its individual modes.

    The individual modes' rows left on the context by the 3-pass are
    reused while they still hold (only path exceptions were added to the
    merged mode since); the enclosing span is annotated ``rows=reused``
    or ``rows=rebuilt``.  The merged mode's rows are always recomputed.
    """
    refiner = ThreePassRefiner(context, max_iterations=1, apply_fixes=False,
                               budget=budget)
    obs = current()
    obs.tracer.annotate(
        rows="reused" if refiner.rows_reused else "rebuilt")
    if refiner.rows_reused:
        obs.metrics.inc("three_pass.rows_reused")
    outcome = refiner.run()
    return EquivalenceReport(
        equivalent=not outcome.residuals,
        mismatches=list(outcome.residuals),
        compared_mode_names=[m.name for m in context.modes],
        merged_mode_name=context.merged.name,
    )


def check_mode_equivalence(netlist: Netlist, individual_modes: Sequence[Mode],
                           merged_mode: Mode,
                           clock_maps: Optional[Dict[str, Dict[str, str]]] = None
                           ) -> EquivalenceReport:
    """Standalone equivalence check of an arbitrary candidate superset mode.

    ``clock_maps`` maps each individual mode's clock names to the candidate
    mode's names; omitted entries are matched by name (the common case when
    the candidate was written by hand against the same clock names).  The
    check builds a fresh context, so it computes every row itself.
    """
    context = MergeContext(netlist, list(individual_modes),
                           merged_mode.name)
    context.merged = merged_mode
    if clock_maps:
        for mode_name, mapping in clock_maps.items():
            if mode_name in context.clock_maps:
                context.clock_maps[mode_name].update(mapping)
    # Unmapped clocks map to themselves.
    for mode in individual_modes:
        mapping = context.clock_maps[mode.name]
        for clock_name in mode.clock_names():
            mapping.setdefault(clock_name, clock_name)
    return check_equivalence(context)
