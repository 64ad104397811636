"""Preliminary merging step 3.1.6: drive and load constraints.

``set_input_transition``, ``set_drive``, ``set_driving_cell`` and
``set_load`` describe the electrical environment.  The paper requires them
to be *the same across all individual modes within the tolerance limit*;
within-tolerance spreads merge to the worst case (min of min-type, max of
max-type), anything else is a mergeability conflict.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, Sequence

from repro.core.clock_constraints import (
    DEFAULT_TOLERANCE,
    values_within_tolerance,
)
from repro.core.steps import (
    Conflict,
    MergeContext,
    Row,
    RuleVerdict,
    StepReport,
    group_rows,
)
from repro.obs.provenance import RULE_TOLERANCE
from repro.sdc.commands import DRIVE_LOAD_TYPES, SetDrivingCell


def drive_load_verdicts(mode_names: Sequence[str], rows: Iterable[Row],
                        tolerance: float = DEFAULT_TOLERANCE
                        ) -> Iterator[RuleVerdict]:
    """Step 3.1.6's rule, set by set: every mode must have the
    constraint, with one driving cell or values within tolerance."""
    modes = tuple(mode_names)
    for key, entries in group_rows(rows).items():
        sample = entries[0][1]
        present = {name for name, _ in entries}
        missing = []
        conflicts = []
        if len(present) != len(modes):
            missing = [name for name in modes if name not in present]
            conflicts.append(Conflict(
                modes, f"{sample.command} on {sample.objects} missing in "
                       f"modes {missing}"))
        if isinstance(sample, SetDrivingCell):
            cells = {(c.lib_cell, c.pin) for _, c in entries}
            if len(cells) > 1:
                conflicts.append(Conflict(
                    modes, f"set_driving_cell on {sample.objects} uses "
                           f"different cells {sorted(cells)}"))
                yield RuleVerdict(key, entries, missing, conflicts, None)
                continue
        else:
            values = [c.value for _, c in entries]
            if not values_within_tolerance(values, tolerance):
                conflicts.append(Conflict(
                    modes, f"{sample.command} values {sorted(values)} on "
                           f"{sample.objects} exceed tolerance "
                           f"{tolerance:.0%}"))
        yield RuleVerdict(key, entries, missing, conflicts, sample)


def merge_drive_load(context: MergeContext,
                     tolerance: float = DEFAULT_TOLERANCE) -> StepReport:
    report = context.report("drive/load constraints (3.1.6)", "drive_load")
    rows = [(mode.name, constraint, constraint.key())
            for mode in context.modes
            for constraint in mode.of_type(*DRIVE_LOAD_TYPES)]
    for _key, entries, _missing, conflicts, kept in drive_load_verdicts(
            context.mode_names(), rows, tolerance):
        sample = entries[0][1]
        present = sorted({name for name, _ in entries})
        if kept is None:
            report.record("dropped", None, RULE_TOLERANCE, present,
                          conflicts=conflicts)
        elif isinstance(sample, SetDrivingCell):
            report.record("kept", sample, RULE_TOLERANCE, present,
                          "same driving cell in all modes",
                          conflicts=conflicts)
        else:
            values = [c.value for _, c in entries]
            merged_value = min(values) if getattr(sample, "is_min", False) \
                else max(values)
            report.record(
                "merged" if len(set(values)) > 1 else "kept",
                replace(sample, value=merged_value), RULE_TOLERANCE, present,
                f"worst-case {merged_value:g} of {sorted(set(values))}",
                conflicts=conflicts)
    return report
