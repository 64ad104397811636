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

from itertools import product
from typing import Dict, FrozenSet, List, Mapping, Optional, Set

from repro.netlist.cells import LOGIC_X
from repro.netlist.netlist import Pin
from repro.timing.graph import (
    ARC_CELL,
    ARC_LAUNCH,
    ARC_NET,
    Arc,
    TimingGraph,
)


class ConstantAnalysis:
    """Ternary constants + arc liveness for one mode's case analysis."""

    def __init__(self, graph: TimingGraph,
                 case_values: Optional[Mapping[int, int]] = None,
                 disabled_arcs: Optional[Set[int]] = None):
        self.graph = graph
        self.case_values: Dict[int, int] = dict(case_values or {})
        self.disabled_arcs: Set[int] = set(disabled_arcs or ())
        #: node -> 0 | 1 | "X"
        self.values: List[object] = [LOGIC_X] * graph.node_count
        self._live_cache: Dict[int, bool] = {}
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
        clone._live_cache = {}
        return clone

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        graph = self.graph
        values = self.values
        for node in graph.topo_order:
            forced = self.case_values.get(node)
            if forced is not None:
                values[node] = forced
                continue
            obj = graph.node_obj[node]
            if isinstance(obj, Pin) and obj.is_output:
                inst = obj.instance
                cell = inst.cell
                if cell.is_sequential and obj.name in cell.output_pins_seq \
                        and not cell.is_latch:
                    # FF outputs toggle (unless case-forced above).
                    values[node] = LOGIC_X
                    continue
                if cell.functions.get(obj.name) is not None:
                    inputs = {
                        pin.name: values[graph.node_index[pin.full_name]]
                        for pin in inst.input_pins()
                    }
                    values[node] = cell.evaluate(obj.name, inputs)
                    continue
                values[node] = LOGIC_X
                continue
            # Input pins / ports: take the driver's value through the net.
            fanin = graph.fanin[node]
            net_arcs = [a for a in fanin if a.kind == ARC_NET]
            if net_arcs:
                values[node] = values[net_arcs[0].src]
            else:
                values[node] = LOGIC_X

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def value(self, node: int):
        return self.values[node]

    def is_constant(self, node: int) -> bool:
        return self.values[node] != LOGIC_X

    def arc_is_live(self, arc: Arc) -> bool:
        """Can a transition propagate along ``arc`` in this mode?"""
        cached = self._live_cache.get(arc.index)
        if cached is not None:
            return cached
        live = self._compute_live(arc)
        self._live_cache[arc.index] = live
        return live

    def _compute_live(self, arc: Arc) -> bool:
        if arc.index in self.disabled_arcs:
            return False
        values = self.values
        if values[arc.src] != LOGIC_X:
            return False
        if values[arc.dst] != LOGIC_X:
            return False
        if arc.kind != ARC_CELL:
            return True
        return self._sensitizable(arc)

    def _sensitizable(self, arc: Arc) -> bool:
        """Check whether toggling ``arc.src`` can toggle ``arc.dst``.

        Brute-forces the unknown side inputs (library cells have at most
        three), holding known-constant inputs at their values.
        """
        inst = arc.instance
        if inst is None:
            return True
        cell = inst.cell
        graph = self.graph
        out_name = graph.node_obj[arc.dst].name
        func = cell.functions.get(out_name)
        if func is None:
            return True  # no function: assume propagating (e.g. latches)
        in_name = graph.node_obj[arc.src].name
        side_inputs: List[str] = []
        fixed: Dict[str, object] = {}
        for pin in inst.input_pins():
            if pin.name == in_name:
                continue
            value = self.values[graph.node_index[pin.full_name]]
            if value == LOGIC_X:
                side_inputs.append(pin.name)
            else:
                fixed[pin.name] = value
        for assignment in product((0, 1), repeat=len(side_inputs)):
            inputs = dict(fixed)
            inputs.update(zip(side_inputs, assignment))
            inputs[in_name] = 0
            low = func(inputs)
            inputs[in_name] = 1
            high = func(inputs)
            if low != high:
                return True
        return False

    def constant_nodes(self) -> Dict[int, int]:
        """All nodes with a known constant value."""
        return {
            node: value  # type: ignore[misc]
            for node, value in enumerate(self.values)
            if value != LOGIC_X
        }
