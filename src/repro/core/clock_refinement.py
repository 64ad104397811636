"""Preliminary merging step 3.1.8: clock refinement.

Two jobs, both driven by comparing the merged mode's propagated clock sets
against the individual modes' (paper Constraint Set 3):

1. **Inferred disables** — a pin whose ``set_case_analysis`` was dropped in
   step 3.1.4 but which is constant in *every* individual mode never
   toggles in any mode; we add ``set_disable_timing`` on it so the merged
   mode does not time paths through it.
2. **Clock stops** — a breadth-first walk over the clock network compares
   the clocks present on every node in the merged mode against the union
   of the individual modes (through the clock maps).  Any clock found on a
   node in the merged mode but on no individual mode is blocked there with
   ``set_clock_sense -stop_propagation`` — emitted only at the frontier
   (nodes whose fanins do not already carry the extra clock), exactly like
   the paper's CSTR3 stopping ``clkA`` at ``mux1/Z``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.steps import MergeContext, StepReport
from repro.core.watchdog import WatchdogBudget
from repro.netlist.netlist import Pin, Port
from repro.obs.context import current
from repro.obs.provenance import RULE_DERIVED
from repro.sdc.commands import ObjectRef, SetClockSense, SetDisableTiming
from repro.timing.clocks import ClockPropagation
from repro.timing.graph import ARC_LAUNCH


def _ref_for_node(graph, node: int) -> ObjectRef:
    obj = graph.node_obj[node]
    name = graph.name(node)
    if isinstance(obj, Port):
        return ObjectRef.ports(name)
    return ObjectRef.pins(name)


def infer_disables_from_dropped_cases(context: MergeContext,
                                      report: StepReport) -> None:
    """Job 1: disable pins that are constant in every individual mode."""
    if not context.dropped_cases:
        return
    graph = context.graph
    ledger = current().decisions
    bounds = context.bound_individuals()
    emitted: Set[int] = set()
    for _mode_name, constraint in context.dropped_cases:
        # Re-resolve the dropped case's objects against the design.
        nodes: Set[int] = set()
        for name in bounds[0].resolver.resolve_to_pin_like(constraint.objects):
            node = graph.node_of(name)
            if node is not None:
                nodes.add(node)
        for node in nodes:
            if node in emitted:
                continue
            if all(b.constants.is_constant(node) for b in bounds):
                emitted.add(node)
                disable = SetDisableTiming(objects=_ref_for_node(graph, node))
                report.add(context.merged.add(disable))
                context.provenance.record(
                    disable, RULE_DERIVED, list(context.mode_names()),
                    step="clock_refinement",
                    detail=f"{graph.name(node)} constant in every mode; "
                           f"disable inferred from dropped cases")
                report.note(
                    f"{graph.name(node)} is constant in every individual "
                    f"mode; inferred set_disable_timing")
                if ledger.enabled:
                    ledger.decide(
                        "refinement.inferred_disable",
                        f"pin:{graph.name(node)}",
                        verdict="disabled",
                        evidence=["constant in every individual mode",
                                  "case dropped in 3.1.4; disable "
                                  "inferred in its place"])


def find_extra_clock_frontier(graph, merged_prop: ClockPropagation,
                              union_ind: Dict[int, Set[str]],
                              merged_constants) -> List[Tuple[int, str]]:
    """Frontier (node, clock) pairs where the merged mode propagates a
    clock no individual mode has — shared by clock and data refinement."""
    extra: Dict[int, Set[str]] = {}
    for node, clocks in merged_prop.node_clocks.items():
        missing = clocks - union_ind.get(node, set())
        if missing:
            extra[node] = missing
    frontier: List[Tuple[int, str]] = []
    for node in sorted(extra, key=lambda n: graph.topo_rank[n]):
        for clock_name in sorted(extra[node]):
            covered = False
            for arc in graph.fanin[node]:
                if arc.kind == ARC_LAUNCH:
                    continue
                if not merged_constants.arc_is_live(arc):
                    continue
                if clock_name in extra.get(arc.src, ()):
                    covered = True
                    break
            if not covered:
                frontier.append((node, clock_name))
    return frontier


def refine_clock_network(context: MergeContext,
                         budget: Optional[WatchdogBudget] = None
                         ) -> StepReport:
    report = context.report("clock refinement (3.1.8)")
    graph = context.graph
    obs = current()
    metrics, tracer, ledger = obs.metrics, obs.tracer, obs.decisions
    if budget is not None:
        # The per-mode propagation walks below visit every graph node;
        # refuse up front rather than grinding through an oversized BFS.
        budget.check_graph(graph.node_count, "clock_refinement")

    infer_disables_from_dropped_cases(context, report)

    # Union of individual clock propagation, in merged clock names.
    union_ind: Dict[int, Set[str]] = {}
    nodes_visited = 0
    for mode, bound in zip(context.modes, context.bound_individuals()):
        mapping = context.clock_maps[mode.name]
        prop = bound.clock_propagation()
        nodes_visited += len(prop.node_clocks)
        for node, clocks in prop.node_clocks.items():
            bucket = union_ind.setdefault(node, set())
            bucket.update(mapping.get(c, c) for c in clocks)

    merged_bound = context.bind_merged()
    merged_prop = merged_bound.clock_propagation()
    nodes_visited += len(merged_prop.node_clocks)
    frontier = find_extra_clock_frontier(graph, merged_prop, union_ind,
                                         merged_bound.constants)
    for node, clock_name in frontier:
        stop = SetClockSense(
            pins=_ref_for_node(graph, node),
            clocks=ObjectRef.clocks(clock_name),
            stop_propagation=True,
        )
        report.add(context.merged.add(stop))
        context.provenance.record(
            stop, RULE_DERIVED, list(context.mode_names()),
            step="clock_refinement",
            detail=f"clock {clock_name} reaches {graph.name(node)} only "
                   f"in the merged mode")
        report.note(
            f"clock {clock_name} reaches {graph.name(node)} only in the "
            f"merged mode; stopped with set_clock_sense")
        if ledger.enabled:
            ledger.decide(
                "refinement.clock_stop",
                f"clock:{clock_name}@{graph.name(node)}",
                verdict="stopped",
                evidence=[f"clock {clock_name} reaches {graph.name(node)} "
                          f"only in the merged mode",
                          "frontier node: no live fanin already carries "
                          "the extra clock"],
                clock=clock_name, node=graph.name(node))
    metrics.inc("clock_refinement.nodes_visited", nodes_visited)
    metrics.inc("clock_refinement.stops", len(frontier))
    if tracer.enabled:
        tracer.annotate(clock_nodes_visited=nodes_visited,
                        clock_stops=len(frontier))
    return report
