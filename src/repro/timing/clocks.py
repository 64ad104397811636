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

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set

from repro.obs.metrics import get_metrics
from repro.timing.context import BoundMode, Clock
from repro.timing.graph import ARC_LAUNCH, TimingGraph


class ClockPropagation:
    """Result of propagating all clocks of one bound mode."""

    def __init__(self, bound: BoundMode):
        self.bound = bound
        graph = bound.graph
        #: node -> set of clock names present on the clock network
        self.node_clocks: Dict[int, Set[str]] = {}
        #: sequential instance name -> clocks arriving at its clock pin
        self.register_clocks: Dict[str, Set[str]] = {}
        # Map generated-clock source node -> {master names consumed there}.
        self._gen_sources: Dict[int, Set[str]] = {}
        for clock in bound.clocks.values():
            if clock.is_generated and clock.master:
                for node in clock.source_nodes:
                    self._gen_sources.setdefault(node, set()).add(clock.master)
        self._propagate()

    def _propagate(self) -> None:
        bound = self.bound
        graph = bound.graph
        constants = bound.constants
        expansions = 0
        for clock in bound.clocks.values():
            if clock.is_virtual:
                continue
            visited: Set[int] = set()
            queue = deque()
            for node in clock.source_nodes:
                queue.append(node)
            while queue:
                node = queue.popleft()
                if node in visited:
                    continue
                visited.add(node)
                expansions += 1
                if bound.stops_clock(node, clock.name):
                    continue
                if not clock.is_generated:
                    masters_consumed = self._gen_sources.get(node)
                    if masters_consumed and clock.name in masters_consumed \
                            and node not in clock.source_nodes:
                        # A generated clock takes over from here.
                        continue
                self.node_clocks.setdefault(node, set()).add(clock.name)
                for arc in graph.fanout[node]:
                    if arc.kind == ARC_LAUNCH:
                        continue
                    if not constants.arc_is_live(arc):
                        continue
                    if arc.dst not in visited:
                        queue.append(arc.dst)

        metrics = get_metrics()
        if metrics.enabled and expansions:
            metrics.inc("profile.bfs_expansions", expansions)

        for inst_name, (clock_node, _data, _outs) in graph.seq_info.items():
            clocks = self.node_clocks.get(clock_node)
            if clocks:
                self.register_clocks[inst_name] = set(clocks)

    # ------------------------------------------------------------------
    def clocks_at(self, node: int) -> Set[str]:
        return self.node_clocks.get(node, set())

    def clocks_at_register(self, inst_name: str) -> Set[str]:
        return self.register_clocks.get(inst_name, set())

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
                            ) -> Dict[int, Set[str]]:
    """Per-node launch-clock sets over the data network.

    A clock is "present" at a data node when some register clocked by it
    (or some input port with a matching ``set_input_delay``) can launch a
    transition that reaches the node through live arcs.  One sweep in
    topological order carries every clock at once, each clock as one bit
    of a per-node mask.
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

    fanout = graph.fanout
    is_live = constants.arc_is_live
    for node in graph.topo_order:
        mask = masks[node]
        if not mask:
            continue
        for arc in fanout[node]:
            if arc.kind != ARC_LAUNCH and is_live(arc):
                masks[arc.dst] |= mask

    names_of: Dict[int, FrozenSet[str]] = {}
    node_clocks: Dict[int, Set[str]] = {}
    labels = 0
    for node, mask in enumerate(masks):
        if not mask:
            continue
        names = names_of.get(mask)
        if names is None:
            names = names_of[mask] = frozenset(
                name for name, bit in bits.items() if mask & bit)
        node_clocks[node] = set(names)
        labels += len(names)
    metrics = get_metrics()
    if metrics.enabled and labels:
        metrics.inc("profile.bfs_expansions", labels)
    return node_clocks
