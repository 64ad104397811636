"""Clock propagation through the clock network, and launch-clock
propagation through the data network.

*Clock network propagation* starts at each clock's source nodes and walks
forward through live arcs (constants and ``set_disable_timing`` kill arcs;
``set_clock_sense -stop_propagation`` kills a specific clock at a specific
pin).  Launch arcs (CP -> Q) are not traversed: registers terminate the
clock network.  Generated-clock source pins swap the master clock for the
generated one, as sign-off tools do.

*Launch-clock propagation* is the data-network image of the same idea: the
clocks present at a register's CP pin enter the data network through the
CP -> Q launch arc, and input-port clocks enter via ``set_input_delay``.
It is one topological sweep that carries every clock at once.
The merged-mode *data refinement* (paper Section 3.2, first step) compares
exactly these per-node launch-clock sets.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set

from repro.obs.context import current
from repro.timing.context import BoundMode, Clock
from repro.timing.graph import ARC_LAUNCH


class ClockPropagation:
    """Result of propagating all clocks of one bound mode.

    The clock sets it hands out are frozensets, one object per distinct
    set: an extended binding may share its parent's propagation
    (:meth:`~repro.timing.context.BoundMode.extended`), so no consumer
    may alter another binding's answer.
    """

    def __init__(self, bound: BoundMode):
        self.bound = bound
        #: node -> clock names present on the clock network
        self.node_clocks: Dict[int, FrozenSet[str]] = {}
        #: sequential instance name -> clocks arriving at its clock pin
        self.register_clocks: Dict[str, FrozenSet[str]] = {}
        # Map generated-clock source node -> {master names consumed there}.
        self._gen_sources: Dict[int, Set[str]] = {}
        for clock in bound.clocks.values():
            if clock.is_generated and clock.master:
                for node in clock.source_nodes:
                    self._gen_sources.setdefault(node, set()).add(clock.master)
        self._propagate()

    def _propagate(self) -> None:
        """One BFS per clock from its sources over live non-launch arcs."""
        bound = self.bound
        graph = bound.graph
        constants = bound.constants
        live = constants.live
        data_fanout = graph.data_fanout
        clock_stops = bound.clock_stops
        gen_sources = self._gen_sources
        found: Dict[int, Set[str]] = {}
        expansions = 0
        for clock in bound.clocks.values():
            if clock.is_virtual:
                continue
            name = clock.name
            sources = clock.source_nodes
            visited: Set[int] = set()
            queue = deque(sources)
            while queue:
                node = queue.popleft()
                if node in visited:
                    continue
                visited.add(node)
                expansions += 1
                stops = clock_stops.get(node)
                if stops and ("*" in stops or name in stops):
                    continue
                if not clock.is_generated:
                    masters_consumed = gen_sources.get(node)
                    if masters_consumed and name in masters_consumed \
                            and node not in sources:
                        # A generated clock takes over from here.
                        continue
                found.setdefault(node, set()).add(name)
                for arc in data_fanout[node]:
                    dst = arc.dst
                    if dst in visited:
                        continue
                    arc_live = live[arc.index]
                    if arc_live is None:
                        arc_live = constants.arc_is_live(arc)
                    if arc_live:
                        queue.append(dst)

        metrics = current().metrics
        if metrics.enabled and expansions:
            metrics.inc("profile.bfs_expansions", expansions)

        interned: Dict[FrozenSet[str], FrozenSet[str]] = {}
        for node, names in found.items():
            frozen = frozenset(names)
            self.node_clocks[node] = interned.setdefault(frozen, frozen)
        for inst_name, (clock_node, _data, _outs) in graph.seq_info.items():
            clocks = self.node_clocks.get(clock_node)
            if clocks:
                self.register_clocks[inst_name] = clocks

    def rebound(self, bound: BoundMode) -> "ClockPropagation":
        """This propagation as ``bound``'s, sharing its tables.

        Only for a binding whose clocks, clock stops and arc liveness
        equal this one's, which therefore propagates identically.
        """
        clone = copy.copy(self)
        clone.bound = bound
        return clone

    # ------------------------------------------------------------------
    def clocks_at(self, node: int) -> FrozenSet[str]:
        return self.node_clocks.get(node, frozenset())

    def clocks_at_register(self, inst_name: str) -> FrozenSet[str]:
        return self.register_clocks.get(inst_name, frozenset())

    def clock_network_nodes(self) -> List[int]:
        """Every node any clock reaches, in topological order."""
        graph = self.bound.graph
        nodes = [n for n in graph.topo_order if n in self.node_clocks]
        return nodes

    def __repr__(self) -> str:
        return (f"ClockPropagation(mode={self.bound.mode.name!r}, "
                f"clocked_nodes={len(self.node_clocks)}, "
                f"clocked_registers={len(self.register_clocks)})")


def propagate_launch_clocks(bound: BoundMode,
                            clock_prop: Optional[ClockPropagation] = None
                            ) -> Dict[int, FrozenSet[str]]:
    """Per-node launch-clock sets over the data network.

    A clock is "present" at a data node when some register clocked by it
    (or some input port with a matching ``set_input_delay``) can launch a
    transition that reaches the node through live arcs.  One sweep in
    topological order carries every clock at once, each clock as one bit
    of a per-node mask.  Nodes with the same mask share one frozenset.
    """
    if clock_prop is None:
        clock_prop = bound.clock_propagation()
    graph = bound.graph
    constants = bound.constants
    bits: Dict[str, int] = {}
    masks: List[int] = [0] * graph.node_count

    def seed(node: int, clock_name: str) -> None:
        bit = bits.get(clock_name)
        if bit is None:
            bit = bits[clock_name] = 1 << len(bits)
        masks[node] |= bit

    for inst_name, (cp_node, _data, _outs) in graph.seq_info.items():
        clocks = clock_prop.register_clocks.get(inst_name)
        if not clocks:
            continue
        for arc in graph.fanout[cp_node]:
            if arc.kind == ARC_LAUNCH and constants.arc_is_live(arc):
                for clock_name in clocks:
                    seed(arc.dst, clock_name)
    for port_node, delays in bound.input_delays.items():
        if constants.is_constant(port_node):
            continue
        for delay in delays:
            if delay.clock and delay.clock in bound.clocks:
                seed(port_node, delay.clock)

    data_fanout = graph.data_fanout
    live = constants.live
    for node in graph.topo_order:
        mask = masks[node]
        if not mask:
            continue
        for arc in data_fanout[node]:
            arc_live = live[arc.index]
            if arc_live is None:
                arc_live = constants.arc_is_live(arc)
            if arc_live:
                masks[arc.dst] |= mask

    names_of: Dict[int, FrozenSet[str]] = {}
    node_clocks: Dict[int, FrozenSet[str]] = {}
    labels = 0
    for node, mask in enumerate(masks):
        if not mask:
            continue
        names = names_of.get(mask)
        if names is None:
            names = names_of[mask] = frozenset(
                name for name, bit in bits.items() if mask & bit)
        node_clocks[node] = names
        labels += len(names)
    metrics = current().metrics
    if metrics.enabled and labels:
        metrics.inc("profile.bfs_expansions", labels)
    return node_clocks
