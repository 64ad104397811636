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
from repro.obs.context import current
from repro.obs.provenance import RULE_DERIVED, RULE_INTERSECTION
from repro.sdc.commands import PathSpec, SetFalsePath


def merge_case_analysis(context: MergeContext) -> StepReport:
    report = context.report("case analysis (3.1.4)")
    ledger = current().decisions
    mode_count = len(context.modes)

    # key (object set) -> list of (mode name, constraint)
    groups = group_rows((mode.name, constraint, constraint.key())
                        for mode in context.modes
                        for constraint in mode.case_analyses())

    for entries in groups.values():
        values = {c.value for _, c in entries}
        present_modes = {name for name, _ in entries}
        sample = entries[0][1]
        if len(present_modes) == mode_count and len(values) == 1:
            # Common to all modes with agreeing value: keep as-is.
            report.add(context.merged.add(sample))
            context.provenance.record(
                sample, RULE_INTERSECTION, sorted(present_modes),
                step="case_analysis",
                detail=f"same constant {sample.value} in every mode")
            if ledger.enabled:
                ledger.decide(
                    "case.merge", f"case:{sample.objects}",
                    verdict="kept",
                    evidence=[f"same constant {sample.value} in every mode"],
                    modes=sorted(present_modes))
            continue
        if len(present_modes) == mode_count and len(values) > 1:
            # Constant in every mode but at conflicting values: the pin
            # never toggles in any individual mode, so paths through it are
            # false everywhere -> translate to a false path.
            false_path = SetFalsePath(
                spec=PathSpec(through_refs=(sample.objects,)))
            context.merged.add(false_path)
            report.add(false_path)
            context.provenance.record(
                false_path, RULE_DERIVED, sorted(present_modes),
                step="case_analysis",
                detail=f"conflicting case values {sorted(values)} "
                       f"translated to a false path")
            report.note(
                f"case on {sample.objects} conflicts across modes "
                f"({sorted(values)}); translated to {false_path.command} "
                f"-through")
            if ledger.enabled:
                ledger.decide(
                    "case.merge", f"case:{sample.objects}",
                    verdict="translated",
                    evidence=[f"conflicting values {sorted(values)}: pin "
                              f"never toggles in any mode",
                              f"became {false_path.command} -through"],
                    modes=sorted(present_modes))
            for name, constraint in entries:
                report.drop(name, constraint)
                context.dropped_cases.append((name, constraint))
            continue
        # Present in a strict subset of modes: drop; refinement will add
        # precise false paths / clock stops for the extra paths.
        missing = [m.name for m in context.modes
                   if m.name not in present_modes]
        report.note(
            f"case on {sample.objects} present only in "
            f"{sorted(present_modes)} (missing in {missing}); dropped for "
            f"refinement")
        if ledger.enabled:
            ledger.decide(
                "case.merge", f"case:{sample.objects}",
                verdict="dropped",
                evidence=[f"present only in {sorted(present_modes)}, "
                          f"missing in {missing}",
                          "refinement will restore precise false paths"],
                modes=sorted(present_modes))
        for name, constraint in entries:
            report.drop(name, constraint)
            context.dropped_cases.append((name, constraint))
    return report
