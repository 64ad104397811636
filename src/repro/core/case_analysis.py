"""Preliminary merging step 3.1.4: intersection of ``set_case_analysis``.

A case value survives into the merged mode only when every individual mode
holds the same pin at the same constant.  Pins that are constant in *every*
mode but at *conflicting* values never toggle in any mode, so the case is
translated to a ``set_false_path -through`` on the pin (the translation the
paper describes).  Pins cased in only some modes are dropped — the merged
mode temporarily gains extra valid paths, which the refinement of Section
3.2 disables precisely.
"""

from __future__ import annotations

from repro.core.steps import MergeContext, StepReport, group_rows
from repro.obs.provenance import RULE_DERIVED, RULE_INTERSECTION
from repro.sdc.commands import PathSpec, SetFalsePath


def merge_case_analysis(context: MergeContext) -> StepReport:
    report = context.report("case analysis (3.1.4)", "case_analysis")
    mode_count = len(context.modes)

    # key (object set) -> list of (mode name, constraint)
    groups = group_rows((mode.name, constraint, constraint.key())
                        for mode in context.modes
                        for constraint in mode.case_analyses())

    for entries in groups.values():
        values = {c.value for _, c in entries}
        present_modes = sorted({name for name, _ in entries})
        sample = entries[0][1]
        subject = f"case:{sample.objects}"
        if len(present_modes) == mode_count and len(values) == 1:
            # Common to all modes with agreeing value: keep as-is.
            report.record("kept", sample, RULE_INTERSECTION, present_modes,
                          f"same constant {sample.value} in every mode",
                          kind="case.merge", subject=subject)
        elif len(present_modes) == mode_count:
            # Constant in every mode but at conflicting values: the pin
            # never toggles in any individual mode, so paths through it are
            # false everywhere -> translate to a false path.
            report.record(
                "translated",
                SetFalsePath(spec=PathSpec(through_refs=(sample.objects,))),
                RULE_DERIVED, present_modes,
                f"conflicting case values {sorted(values)} translated to "
                f"a false path", dropped=entries, kind="case.merge",
                subject=subject)
        else:
            # Present in a strict subset of modes: drop; refinement will
            # add precise false paths / clock stops for the extra paths.
            missing = [m.name for m in context.modes
                       if m.name not in present_modes]
            report.record(
                "dropped", None, RULE_INTERSECTION, present_modes,
                f"case on {sample.objects} present only in {present_modes} "
                f"(missing in {missing}); dropped for refinement",
                dropped=entries, kind="case.merge", subject=subject)
    return report
