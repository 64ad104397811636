"""Merge-run reporting: human-readable summaries and the paper's tables."""

from __future__ import annotations

from typing import Sequence

from repro.core.merger import MergeResult
from repro.core.mergeability import MergingRun
from repro.core.three_pass import ComparisonEntry
from repro.sdc.writer import write_constraint
from repro.timing.report import format_comparison_table, format_table


def format_merge_report(result: MergeResult, show_constraints: bool = False
                        ) -> str:
    """Detailed report of one merge: steps, fixes, validation."""
    lines = [result.summary()]
    lines.append("")
    lines.append("clock map:")
    for mode_name, mapping in result.clock_maps.items():
        for original, merged in sorted(mapping.items()):
            marker = "" if original == merged else "  (renamed)"
            lines.append(f"  {mode_name}.{original} -> {merged}{marker}")
    dropped = [(r.name, m, c) for r in result.reports
               for (m, c) in r.dropped]
    if dropped:
        lines.append("")
        lines.append("dropped constraints:")
        for step, mode_name, constraint in dropped:
            lines.append(f"  [{step}] {mode_name}: "
                         f"{write_constraint(constraint)}")
    if result.outcome.added:
        lines.append("")
        lines.append(f"refinement fixes ({len(result.outcome.added)}):")
        for constraint in result.outcome.added:
            lines.append(f"  {write_constraint(constraint)}")
    if show_constraints:
        lines.append("")
        lines.append("merged mode constraints:")
        for constraint in result.merged:
            lines.append(f"  {write_constraint(constraint)}")
    return "\n".join(lines)


def format_pass_table(entries: Sequence[ComparisonEntry], level: int) -> str:
    """Render one pass's comparison entries like the paper's Tables 2-4."""
    rows = [e.as_row() for e in entries if e.level == level]
    title = f"Timing relationship comparison table for pass {level} " \
            f"[FP: False Path, V: Valid, M: Match, X: Mismatch, A: Ambiguous]"
    if not rows:
        return f"{title}\n(no rows)"
    return format_comparison_table(rows, title)


def format_merging_run(run: MergingRun) -> str:
    """Design-level table: groups, reduction, per-group constraint counts."""
    lines = [run.summary(), ""]
    body = []
    for outcome in run.outcomes:
        result = outcome.result
        if result is not None:
            status = "OK" if result.ok else (outcome.error or "not ok")
        else:
            status = "FAILED"
        if outcome.repaired:
            status += " [repaired]"
        if outcome.restored:
            status += " [restored]"
        body.append([
            "+".join(outcome.mode_names),
            str(len(outcome.mode_names)),
            str(len(result.merged)) if result else "-",
            f"{result.runtime_seconds:.3f}" if result else "-",
            status,
        ])
    lines.append(format_table(
        ["Group", "#Modes", "#Constraints", "Merge time (s)", "Status"],
        body))
    if run.repaired_count:
        lines.append("")
        lines.append(f"sign-off guard repaired {run.repaired_count} "
                     f"outcome(s); see SGN diagnostics below")
    if run.restored_count:
        lines.append("")
        lines.append(f"{run.restored_count} outcome(s) restored from "
                     f"the result cache")
    failed = run.failed_outcomes
    if failed:
        lines.append("")
        lines.append("failures:")
        for outcome in failed:
            reason = outcome.error or "unknown failure"
            lines.append(f"  {'+'.join(outcome.mode_names)}: {reason}")
    if run.diagnostics:
        lines.append("")
        lines.append("diagnostics:")
        for diagnostic in run.diagnostics:
            lines.append(f"  {diagnostic.format()}")
    return "\n".join(lines)
