"""Preliminary merging step 3.1.5: intersection of ``set_disable_timing``.

A disable survives only when present in every individual mode; anything
else is dropped (the corresponding arcs are alive in at least one mode, so
the merged mode must keep them alive — the superset invariant).
"""

from __future__ import annotations

from repro.core.steps import MergeContext, StepReport, group_rows
from repro.obs.provenance import RULE_INTERSECTION


def merge_disable_timing(context: MergeContext) -> StepReport:
    report = context.report("disable timing (3.1.5)", "disable_timing")
    mode_count = len(context.modes)
    groups = group_rows((mode.name, constraint, constraint.key())
                        for mode in context.modes
                        for constraint in mode.disable_timings())
    for entries in groups.values():
        present = sorted({name for name, _ in entries})
        if len(present) == mode_count:
            report.record("kept", entries[0][1], RULE_INTERSECTION, present,
                          "disabled in every mode")
        else:
            missing = [m.name for m in context.modes if m.name not in present]
            report.record(
                "dropped", None, RULE_INTERSECTION, present,
                f"disable on {entries[0][1].objects} only in {present} "
                f"(missing in {missing}); dropped", dropped=entries)
    return report
