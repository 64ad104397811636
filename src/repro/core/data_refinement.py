"""Merged-mode refinement, first step (paper Section 3.2): stop extra
launch clocks in the data network.

The merged mode may launch clocks into data cones that no individual mode
launches there (the Constraint Set 5 situation: a case-held register output
launches nothing in its own mode, but the merged mode dropped the case).
We compare per-node launch-clock sets and, at the frontier, add

    ``set_false_path -from [get_clocks <ck>] -through <node>``

which falsifies exactly the (clock, node) combinations that are extra.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.core.clock_refinement import (
    _ref_for_node,
    find_extra_clock_frontier,
)
from repro.core.steps import MergeContext, StepReport
from repro.obs.provenance import RULE_DERIVED
from repro.sdc.commands import ObjectRef, PathSpec, SetFalsePath
from repro.timing.clocks import propagate_launch_clocks


def refine_data_clocks(context: MergeContext) -> StepReport:
    report = context.report("data refinement: launch clocks (3.2a)",
                            "data_refinement")
    graph = context.graph

    union_ind: Dict[int, Set[str]] = {}
    for mode, bound in zip(context.modes, context.bound_individuals()):
        mapping = context.clock_maps[mode.name]
        # Nodes with the same launch clocks share one frozenset: rename
        # each distinct set once.
        renamed: Dict[FrozenSet[str], FrozenSet[str]] = {}
        for node, clocks in propagate_launch_clocks(bound).items():
            names = renamed.get(clocks)
            if names is None:
                names = renamed[clocks] = frozenset(
                    mapping.get(c, c) for c in clocks)
            bucket = union_ind.get(node)
            if bucket is None:
                union_ind[node] = set(names)
            else:
                bucket |= names

    merged_bound = context.bind_merged()
    for node, clock_name in find_extra_clock_frontier(
            graph, propagate_launch_clocks(merged_bound), union_ind,
            merged_bound.constants):
        name = graph.name(node)
        report.record(
            "falsified",
            SetFalsePath(spec=PathSpec(
                from_refs=(ObjectRef.clocks(clock_name),),
                through_refs=(_ref_for_node(graph, node),))),
            RULE_DERIVED, context.mode_names(),
            f"launch clock {clock_name} reaches {name} only in the merged "
            f"mode", kind="refinement.data_false_path",
            subject=f"clock:{clock_name}@{name}",
            attrs={"clock": clock_name, "node": name})
    return report
