"""Preliminary merging step 3.1.7: determining clock exclusivity.

The merged mode carries the union of all clocks, so exclusivity cannot be
copied from the individual modes.  Instead (following the paper):

1. collect, per individual mode, the pairs of (mapped) clocks that can
   *co-exist* in that mode — both defined there and not separated by a
   ``set_clock_groups`` of that mode;
2. every pair of merged-mode clocks that cannot co-exist in at least one
   individual mode gets a ``set_clock_groups -physically_exclusive``
   constraint in the merged mode.

This is what makes the clock union sound: clocks that only ever existed in
different modes (e.g. a functional and a scan clock on the same port) are
never timed against each other in the merged mode.
"""

from __future__ import annotations

import fnmatch
from itertools import combinations
from typing import FrozenSet, List, Set

from repro.core.steps import MergeContext, StepReport
from repro.obs.provenance import RULE_DERIVED
from repro.sdc.commands import SetClockGroups
from repro.sdc.mode import Mode


def _mode_exclusive_pairs(mode: Mode) -> Set[FrozenSet[str]]:
    """Clock pairs separated by set_clock_groups within one mode."""
    clock_names = mode.clock_names()
    pairs: Set[FrozenSet[str]] = set()
    for constraint in mode.clock_groups():
        expanded: List[List[str]] = []
        for group in constraint.groups:
            names: List[str] = []
            for pattern in group:
                matched = fnmatch.filter(clock_names, pattern)
                names.extend(matched if matched else [pattern])
            expanded.append(names)
        for i, group_a in enumerate(expanded):
            for group_b in expanded[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        if a != b:
                            pairs.add(frozenset((a, b)))
    return pairs


def merge_clock_exclusivity(context: MergeContext) -> StepReport:
    report = context.report("clock exclusivity (3.1.7)",
                            "clock_exclusivity")

    coexist: Set[FrozenSet[str]] = set()
    for mode in context.modes:
        mapping = context.clock_maps[mode.name]
        mode_exclusive = _mode_exclusive_pairs(mode)
        mapped_names = sorted({mapping.get(n, n)
                               for n in mode.clock_names()})
        for a, b in combinations(mode.clock_names(), 2):
            if frozenset((a, b)) in mode_exclusive:
                continue
            ma, mb = mapping.get(a, a), mapping.get(b, b)
            if ma != mb:
                coexist.add(frozenset((ma, mb)))

    merged_clock_names = sorted(context.reverse_clock_map)
    exclusive: List[FrozenSet[str]] = []
    for a, b in combinations(merged_clock_names, 2):
        if frozenset((a, b)) not in coexist:
            exclusive.append(frozenset((a, b)))

    for pair in sorted(exclusive, key=sorted):
        a, b = sorted(pair)
        report.record(
            "exclusive", SetClockGroups(groups=((a,), (b,)),
                                        name=f"{a}_{b}_excl"),
            RULE_DERIVED, context.mode_names(),
            f"clocks {a} and {b} never co-exist in any mode")
    return report
