"""Preliminary merging step 3.1.2: clock-based constraints.

``set_clock_transition``, ``set_clock_latency``, ``set_clock_uncertainty``
and ``set_propagated_clock`` are merged per *corresponding* constraint:
clock references are first rewritten through the clock maps of step 3.1.1,
then constraints with equal identity (:meth:`Constraint.key`) are grouped.
Values within the tolerance window merge to the minimum of min-type values
and the maximum of max-type values; values outside the window are a
mergeability conflict (the paper's "incompatible values" rule).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Set

from repro.core.steps import (
    Conflict,
    MergeContext,
    Row,
    RuleVerdict,
    StepReport,
    group_rows,
)
from repro.obs.provenance import RULE_INTERSECTION, RULE_TOLERANCE
from repro.sdc.commands import (
    CLOCK_ATTACHED_TYPES,
    Constraint,
    SetPropagatedClock,
)

#: Default relative tolerance for "common" constraint values.
DEFAULT_TOLERANCE = 0.10


def values_within_tolerance(values: List[float], tolerance: float) -> bool:
    """True when the spread of ``values`` is inside the relative window."""
    lo, hi = min(values), max(values)
    scale = max(abs(lo), abs(hi))
    if scale == 0.0:
        return True
    return (hi - lo) <= tolerance * scale


def _constraint_clock_names(constraint: Constraint) -> List[str]:
    """Clock names a (mapped) clock-attached constraint refers to."""
    objects = getattr(constraint, "objects", None)
    names: List[str] = []
    if objects is not None and objects.is_clock_ref:
        names.extend(objects.patterns)
    for attr in ("from_clock", "to_clock"):
        value = getattr(constraint, attr, "")
        if value:
            names.append(value)
    return names


def clock_constraint_verdicts(mode_names: Sequence[str],
                              rows: Iterable[Row],
                              mode_clocks: Mapping[str, Set[str]],
                              tolerance: float = DEFAULT_TOLERANCE
                              ) -> Iterator[RuleVerdict]:
    """Step 3.1.2's rule over clock-mapped rows, set by set.

    ``mode_clocks`` holds each mode's clocks in merged names.  A
    constraint is expected in every mode that has all the clocks it
    refers to.
    """
    modes = tuple(mode_names)
    for key, entries in group_rows(rows).items():
        sample = entries[0][1]
        referenced = _constraint_clock_names(sample)
        present = {name for name, _ in entries}
        missing = [name for name in modes if name not in present
                   and all(c in mode_clocks[name] for c in referenced)]
        if isinstance(sample, SetPropagatedClock):
            # Presence-only constraint: kept once if every relevant mode
            # has it; a partial presence is a conflict (ideal vs
            # propagated clocking differs between modes).
            if missing:
                yield RuleVerdict(key, entries, missing, [Conflict(
                    modes, f"{sample.command} on "
                           f"{referenced or sample.objects} missing in "
                           f"modes {missing}")], None)
            else:
                yield RuleVerdict(key, entries, missing, [], sample)
            continue
        values = [c.value for _, c in entries]
        conflicts = []
        if not values_within_tolerance(values, tolerance):
            conflicts.append(Conflict(
                modes, f"{sample.command} values {sorted(values)} exceed "
                       f"tolerance {tolerance:.0%} (key={key})"))
        yield RuleVerdict(key, entries, missing, conflicts, sample)


def merge_clock_constraints(context: MergeContext,
                            tolerance: float = DEFAULT_TOLERANCE
                            ) -> StepReport:
    """Run step 3.1.2 over all clock-attached constraint classes."""
    report = context.report("clock-based constraints (3.1.2)",
                            "clock_constraints")

    rows: List[Row] = []
    mode_clocks: Dict[str, Set[str]] = {}
    for mode in context.modes:
        mapping = context.clock_maps[mode.name]
        mode_clocks[mode.name] = {
            mapping.get(n, n) for n in mode.clock_names()}
        for constraint in mode.of_type(*CLOCK_ATTACHED_TYPES,
                                       SetPropagatedClock):
            mapped = constraint.rename_clocks(mapping)
            rows.append((mode.name, mapped, mapped.key()))

    for _key, entries, missing, conflicts, kept in clock_constraint_verdicts(
            context.mode_names(), rows, mode_clocks, tolerance):
        sample = entries[0][1]
        present_modes = sorted({name for name, _ in entries})
        if isinstance(sample, SetPropagatedClock):
            if kept is None:
                report.record("dropped", None, RULE_INTERSECTION,
                              present_modes, dropped=entries,
                              conflicts=conflicts)
            else:
                report.record("kept", kept, RULE_INTERSECTION,
                              present_modes, "present in every relevant mode",
                              conflicts=conflicts)
            continue

        values = [c.value for _, c in entries]
        merged_value = min(values) if getattr(sample, "is_min", False) \
            else max(values)
        detail = f"worst-case {merged_value:g} of {sorted(set(values))}"
        if missing:
            detail += f"; missing in modes {missing}"
        report.record("merged" if missing or len(set(values)) > 1
                      else "kept", replace(sample, value=merged_value),
                      RULE_TOLERANCE, present_modes, detail,
                      conflicts=conflicts)
    return report
