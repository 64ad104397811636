"""Constant propagation under ``set_case_analysis``.

Case analysis pins (and tie cells) hold nodes at constant logic values;
constants propagate forward through cell functions over the ternary domain
``{0, 1, X}``.  The analysis then answers the question every propagation
step asks: *can a transition pass through this arc?* (:meth:`arc_is_live`).

An arc is dead when its source or destination is constant, when it is
explicitly disabled (``set_disable_timing``), or when the cell function is
not sensitizable from that input under the known side-input values — e.g.
the ``A -> Z`` arc of a mux whose select is constant 1.  This is precisely
the mechanism that makes conflicting case values in merged modes manifest
as *extra propagated clocks*, which the paper's refinement steps detect.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.netlist.cells import LOGIC_X
from repro.timing.graph import Arc, TimingGraph, sensitizable


class ConstantAnalysis:
    """Ternary constants + arc liveness for one mode's case analysis.

    Both run over the graph's compiled tables: the values are one pass
    over :attr:`TimingGraph.const_plan`, and an arc's liveness is
    memoized in a flat per-arc list.  Only a cell arc with a constant
    side input brute-forces its sensitization; any other cell arc takes
    the graph's all-sides-unknown answer.
    """

    def __init__(self, graph: TimingGraph,
                 case_values: Optional[Mapping[int, int]] = None,
                 disabled_arcs: Optional[Set[int]] = None):
        self.graph = graph
        self.case_values: Dict[int, int] = dict(case_values or {})
        self.disabled_arcs: Set[int] = set(disabled_arcs or ())
        #: node -> 0 | 1 | "X"
        self.values: List[object] = [LOGIC_X] * graph.node_count
        #: arc index -> liveness (None until first asked)
        self._live: List[Optional[bool]] = [None] * graph.arc_count
        self._propagate()

    def with_disabled_arcs(self, disabled_arcs: Set[int]
                           ) -> "ConstantAnalysis":
        """The same analysis under other disabled arcs.

        Constant values depend on the case values alone, so they are
        shared, not propagated again; only arc liveness starts afresh.
        """
        clone = object.__new__(ConstantAnalysis)
        clone.graph = self.graph
        clone.case_values = self.case_values
        clone.disabled_arcs = set(disabled_arcs)
        clone.values = self.values
        clone._live = [None] * self.graph.arc_count
        return clone

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        values = self.values
        case = self.case_values
        for node, value in case.items():
            values[node] = value
        for node, driver, func, names, inputs, idle in self.graph.const_plan:
            if node in case:
                continue
            if driver >= 0:
                values[node] = values[driver]
                continue
            for input_node in inputs:
                if values[input_node] != LOGIC_X:
                    values[node] = func(dict(zip(
                        names, [values[i] for i in inputs])))
                    break
            else:
                values[node] = idle

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def value(self, node: int):
        return self.values[node]

    def is_constant(self, node: int) -> bool:
        return self.values[node] != LOGIC_X

    def arc_is_live(self, arc: Arc) -> bool:
        """Can a transition propagate along ``arc`` in this mode?"""
        live = self._live[arc.index]
        if live is None:
            live = self._live[arc.index] = self._compute_live(arc)
        return live

    def _compute_live(self, arc: Arc) -> bool:
        if arc.index in self.disabled_arcs:
            return False
        values = self.values
        if values[arc.src] != LOGIC_X:
            return False
        if values[arc.dst] != LOGIC_X:
            return False
        sides = self.graph.arc_sides[arc.index]
        if sides is None:
            return True
        func, in_name, names, nodes, idle_live = sides
        fixed = {name: values[node] for name, node in zip(names, nodes)
                 if values[node] != LOGIC_X}
        if not fixed:
            return idle_live
        return sensitizable(func, in_name, names, fixed)

    def constant_nodes(self) -> Dict[int, int]:
        """All nodes with a known constant value."""
        return {
            node: value  # type: ignore[misc]
            for node, value in enumerate(self.values)
            if value != LOGIC_X
        }
