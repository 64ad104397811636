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

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.clock_refinement import _ref_for_node
from repro.core.steps import MergeContext, StepReport
from repro.obs.context import current
from repro.obs.provenance import RULE_DERIVED
from repro.sdc.commands import ObjectRef, PathSpec, SetFalsePath
from repro.timing.clocks import propagate_launch_clocks
from repro.timing.graph import ARC_LAUNCH


def refine_data_clocks(context: MergeContext) -> StepReport:
    report = context.report("data refinement: launch clocks (3.2a)")
    graph = context.graph
    ledger = current().decisions

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
    merged_launches = propagate_launch_clocks(merged_bound)
    constants = merged_bound.constants

    extra: Dict[int, Set[str]] = {}
    for node, clocks in merged_launches.items():
        missing = clocks - union_ind.get(node, set())
        if missing:
            extra[node] = missing

    for node in sorted(extra, key=lambda n: graph.topo_rank[n]):
        for clock_name in sorted(extra[node]):
            covered = False
            for arc in graph.fanin[node]:
                if arc.kind == ARC_LAUNCH:
                    continue
                if not constants.arc_is_live(arc):
                    continue
                if clock_name in extra.get(arc.src, ()):
                    covered = True
                    break
            if covered:
                continue
            fix = SetFalsePath(spec=PathSpec(
                from_refs=(ObjectRef.clocks(clock_name),),
                through_refs=(_ref_for_node(graph, node),),
            ))
            report.add(context.merged.add(fix))
            context.provenance.record(
                fix, RULE_DERIVED, list(context.mode_names()),
                step="data_refinement",
                detail=f"launch clock {clock_name} reaches "
                       f"{graph.name(node)} only in the merged mode")
            report.note(
                f"launch clock {clock_name} reaches {graph.name(node)} only "
                f"in the merged mode; falsified with set_false_path "
                f"-from/-through")
            if ledger.enabled:
                ledger.decide(
                    "refinement.data_false_path",
                    f"clock:{clock_name}@{graph.name(node)}",
                    verdict="falsified",
                    evidence=[f"launch clock {clock_name} reaches "
                              f"{graph.name(node)} only in the merged mode",
                              "set_false_path -from/-through added"],
                    clock=clock_name, node=graph.name(node))
    current().metrics.inc("data_refinement.false_paths", len(report.added))
    return report
