"""Preliminary merging step 3.1.5: intersection of ``set_disable_timing``.

A disable survives only when present in every individual mode; anything
else is dropped (the corresponding arcs are alive in at least one mode, so
the merged mode must keep them alive — the superset invariant).
"""

from __future__ import annotations

from repro.core.steps import MergeContext, StepReport, group_rows
from repro.obs.provenance import RULE_INTERSECTION


def merge_disable_timing(context: MergeContext) -> StepReport:
    report = context.report("disable timing (3.1.5)")
    mode_count = len(context.modes)
    groups = group_rows((mode.name, constraint, constraint.key())
                        for mode in context.modes
                        for constraint in mode.disable_timings())
    for entries in groups.values():
        present = {name for name, _ in entries}
        if len(present) == mode_count:
            report.add(context.merged.add(entries[0][1]))
            context.provenance.record(
                entries[0][1], RULE_INTERSECTION, sorted(present),
                step="disable_timing", detail="disabled in every mode")
        else:
            missing = [m.name for m in context.modes if m.name not in present]
            report.note(
                f"disable on {entries[0][1].objects} only in "
                f"{sorted(present)} (missing in {missing}); dropped")
            for name, constraint in entries:
                report.drop(name, constraint)
    return report
