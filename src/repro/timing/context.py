"""Binding a :class:`~repro.sdc.mode.Mode` to a design.

:class:`BoundMode` resolves every constraint of a mode against a timing
graph: clock definitions become runtime :class:`Clock` objects with source
nodes, ``set_case_analysis`` becomes node constants, ``set_disable_timing``
becomes dead arcs, exceptions become :class:`BoundException` matchers over
node sets, and so on.  Everything downstream (clock propagation,
relationship extraction, STA, and all the merging steps) consumes a
BoundMode rather than raw SDC.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.netlist.netlist import Netlist, Pin
from repro.sdc.commands import (
    Constraint,
    CreateClock,
    CreateGeneratedClock,
    EXCEPTION_TYPES,
    ObjectRef,
    PathSpec,
    SetCaseAnalysis,
    SetClockGroups,
    SetClockLatency,
    SetClockSense,
    SetClockUncertainty,
    SetDisableTiming,
    SetInputDelay,
    SetOutputDelay,
)
from repro.sdc.mode import Mode
from repro.timing.constants import ConstantAnalysis
from repro.timing.graph import ARC_NET, TimingGraph, build_graph


@dataclass(frozen=True)
class Clock:
    """A clock bound to the design: sources resolved to graph nodes."""

    name: str
    period: float
    waveform: Tuple[float, float]
    source_nodes: FrozenSet[int]
    is_generated: bool = False
    master: str = ""
    is_virtual: bool = False

    @property
    def rise_edge(self) -> float:
        return self.waveform[0]

    @property
    def fall_edge(self) -> float:
        return self.waveform[1]


@dataclass
class BoundException:
    """An exception with its selections resolved to node sets.

    ``rise_from``/``fall_from`` and ``rise_to``/``fall_to`` carry the
    SDC edge qualifiers.  For pin selections the qualifier constrains the
    *data* edge at that point; for clock selections it constrains the
    clock's active edge (always rising for this library's edge-triggered
    cells, so ``-rise_*`` on a clock matches and ``-fall_*`` does not).
    """

    index: int
    constraint: Constraint
    from_nodes: FrozenSet[int]
    from_clocks: FrozenSet[str]
    through: Tuple[FrozenSet[int], ...]
    to_nodes: FrozenSet[int]
    to_clocks: FrozenSet[str]
    rise_from: bool = False
    fall_from: bool = False
    rise_to: bool = False
    fall_to: bool = False

    @property
    def has_from(self) -> bool:
        return bool(self.from_nodes or self.from_clocks)

    @property
    def has_to(self) -> bool:
        return bool(self.to_nodes or self.to_clocks)

    @property
    def has_edge_qualifiers(self) -> bool:
        return self.rise_from or self.fall_from or self.rise_to \
            or self.fall_to

    def _from_edge_ok(self, edge: str) -> bool:
        if not (self.rise_from or self.fall_from):
            return True
        if edge == "*":
            return True
        return (self.rise_from and edge == "r") \
            or (self.fall_from and edge == "f")

    def _to_edge_ok(self, edge: str) -> bool:
        if not (self.rise_to or self.fall_to):
            return True
        if edge == "*":
            return True
        return (self.rise_to and edge == "r") \
            or (self.fall_to and edge == "f")

    def activates(self, sp_node: int, launch_clock: str,
                  from_edge: str = "*") -> bool:
        """Does the -from condition hold for this startpoint/launch clock?

        ``from_edge`` is the edge at the startpoint: the clock's active
        edge for register launches ('r' here), the data edge for ports.
        """
        if not self.has_from:
            return True
        if sp_node in self.from_nodes:
            return self._from_edge_ok(from_edge)
        if launch_clock in self.from_clocks:
            # Clock-based -from: the qualifier is about the launch edge
            # (the launching register's active clock edge).
            if not (self.rise_from or self.fall_from):
                return True
            if from_edge == "*":
                return True
            return (self.rise_from and from_edge == "r") \
                or (self.fall_from and from_edge == "f")
        return False

    def completes(self, progress: int, ep_node: int, capture_clock: str,
                  data_edge: str = "*", capture_edge: str = "r") -> bool:
        """Does the exception fully apply at this endpoint?

        ``data_edge`` is the data edge arriving at the endpoint;
        ``capture_edge`` the capturing register's active clock edge.
        """
        if progress < len(self.through):
            return False
        if not self.has_to:
            return True
        if ep_node in self.to_nodes and self._to_edge_ok(data_edge):
            return True
        if capture_clock in self.to_clocks:
            # Clock-based -to: the qualifier is about the capture edge.
            if not (self.rise_to or self.fall_to):
                return True
            return (self.rise_to and capture_edge == "r") \
                or (self.fall_to and capture_edge == "f")
        return False


@dataclass(frozen=True)
class ExternalDelay:
    """One bound set_input_delay / set_output_delay row."""

    node: int
    clock: str
    value: float
    min_flag: bool
    max_flag: bool
    clock_fall: bool = False

    @property
    def applies_max(self) -> bool:
        return self.max_flag or not self.min_flag

    @property
    def applies_min(self) -> bool:
        return self.min_flag or not self.max_flag


class BoundMode:
    """A mode fully resolved against one netlist's timing graph."""

    def __init__(self, netlist: Netlist, mode: Mode,
                 graph: Optional[TimingGraph] = None):
        self.netlist = netlist
        self.mode = mode
        self.graph = graph or build_graph(netlist)
        from repro.sdc.object_query import resolver_for

        self.resolver = resolver_for(netlist).with_clocks(mode.clock_names())

        self.clocks: Dict[str, Clock] = {}
        self.case_values: Dict[int, int] = {}
        self.disabled_arcs: Set[int] = set()
        #: node -> set of clock names stopped there ("*" = all clocks)
        self.clock_stops: Dict[int, Set[str]] = {}
        self.exceptions: List[BoundException] = []
        self.input_delays: Dict[int, List[ExternalDelay]] = {}
        self.output_delays: Dict[int, List[ExternalDelay]] = {}
        #: unordered clock-name pairs that are never timed against each other
        self.exclusive_pairs: Set[FrozenSet[str]] = set()
        #: clock name -> (min latency, max latency) from set_clock_latency
        self.clock_latency: Dict[str, Tuple[float, float]] = {}
        #: (from_clock, to_clock) -> setup uncertainty  ("" = any)
        self.uncertainty: Dict[Tuple[str, str], float] = {}

        #: (startpoint, endpoint) -> nodes on a live path between them,
        #: memoized by relationship extraction walking this binding (and
        #: shared by the bindings :meth:`extended` from it with the same
        #: arc liveness)
        self.between: Dict[Tuple[int, int], FrozenSet[int]] = {}

        #: the constraints this binding resolved, in mode order
        self._constraints: List[Constraint] = mode.constraints
        self._bind(self._constraints)
        self.constants = ConstantAnalysis(self.graph, self.case_values,
                                          self.disabled_arcs)

    def extended(self, mode: Mode) -> Optional["BoundMode"]:
        """This binding plus the constraints appended to ``mode`` since.

        Returns a new binding equal to ``BoundMode(netlist, mode, graph)``
        without resolving the old constraints again, or None when that
        cannot be done: ``mode`` is another mode, lost or changed a bound
        constraint, or gained a clock definition or a
        ``set_case_analysis``.  Those two are the only constraints that
        change the resolver's clock namespace or the constant values, so
        every other appended constraint binds onto a copy of this binding
        exactly as a fresh binding would bind it, and the constant values
        are shared.

        What depends on arc liveness alone is shared too while the
        appended constraints leave the disabled arcs unchanged: the arc
        liveness memo and the live-path cones (:attr:`between`), and,
        when the clock stops are unchanged as well, this binding's clock
        propagation, if it was built.
        """
        bound = self._constraints
        current = mode.constraints
        if mode is not self.mode or current[:len(bound)] != bound:
            return None
        appended = current[len(bound):]
        if any(isinstance(c, (CreateClock, CreateGeneratedClock,
                              SetCaseAnalysis)) for c in appended):
            return None
        clone = copy.copy(self)
        clone.__dict__.pop("_clock_prop", None)
        clone.disabled_arcs = set(self.disabled_arcs)
        clone.clock_stops = {node: set(names)
                             for node, names in self.clock_stops.items()}
        clone.exceptions = list(self.exceptions)
        clone.input_delays = {node: list(rows)
                              for node, rows in self.input_delays.items()}
        clone.output_delays = {node: list(rows)
                               for node, rows in self.output_delays.items()}
        clone.exclusive_pairs = set(self.exclusive_pairs)
        clone.clock_latency = dict(self.clock_latency)
        clone.uncertainty = dict(self.uncertainty)
        clone._constraints = current
        clone._bind(appended)
        if clone.disabled_arcs != self.disabled_arcs:
            clone.constants = self.constants.with_disabled_arcs(
                clone.disabled_arcs)
            clone.between = {}
        elif clone.clock_stops == self.clock_stops \
                and "_clock_prop" in self.__dict__:
            # Same clocks, clock stops and arc liveness: the same answer.
            clone._clock_prop = self._clock_prop
        return clone

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def _bind(self, constraints: Sequence[Constraint]) -> None:
        for constraint in constraints:
            if isinstance(constraint, CreateClock):
                self._bind_clock(constraint)
            elif isinstance(constraint, CreateGeneratedClock):
                self._bind_generated_clock(constraint)
            elif isinstance(constraint, SetCaseAnalysis):
                self._bind_case(constraint)
            elif isinstance(constraint, SetDisableTiming):
                self._bind_disable(constraint)
            elif isinstance(constraint, SetClockSense):
                self._bind_clock_sense(constraint)
            elif isinstance(constraint, EXCEPTION_TYPES):
                self._bind_exception(constraint)
            elif isinstance(constraint, SetInputDelay):
                self._bind_io_delay(constraint, self.input_delays)
            elif isinstance(constraint, SetOutputDelay):
                self._bind_io_delay(constraint, self.output_delays)
            elif isinstance(constraint, SetClockGroups):
                self._bind_clock_groups(constraint)
            elif isinstance(constraint, SetClockLatency):
                self._bind_clock_latency(constraint)
            elif isinstance(constraint, SetClockUncertainty):
                self._bind_uncertainty(constraint)
            # Drive/load/transition constraints do not affect the graph
            # structure; the delay model could consume them (future work).

    def _resolve_nodes(self, ref: ObjectRef) -> Set[int]:
        """Resolve a ref to graph nodes (pins + ports; cells -> all pins)."""
        nodes: Set[int] = set()
        for name in self.resolver.resolve_to_pin_like(ref):
            node = self.graph.node_of(name)
            if node is not None:
                nodes.add(node)
        return nodes

    def _bind_clock(self, constraint: CreateClock) -> None:
        nodes: Set[int] = set()
        if constraint.sources is not None:
            nodes = self._resolve_nodes(constraint.sources)
        waveform = constraint.effective_waveform()
        self.clocks[constraint.name] = Clock(
            name=constraint.name,
            period=constraint.period,
            waveform=(waveform[0], waveform[1]),
            source_nodes=frozenset(nodes),
            is_virtual=not nodes,
        )

    def _bind_generated_clock(self, constraint: CreateGeneratedClock) -> None:
        master = self.clocks.get(constraint.master_clock)
        base_period = master.period if master else 1.0
        period = base_period * constraint.divide_by / max(constraint.multiply_by, 1)
        nodes = self._resolve_nodes(constraint.sources) if constraint.sources \
            else self._resolve_nodes(constraint.source)
        self.clocks[constraint.name] = Clock(
            name=constraint.name,
            period=period,
            waveform=(0.0, period / 2.0),
            source_nodes=frozenset(nodes),
            is_generated=True,
            master=constraint.master_clock,
        )

    def _bind_case(self, constraint: SetCaseAnalysis) -> None:
        for node in self._resolve_nodes(constraint.objects):
            self.case_values[node] = constraint.value

    def _bind_disable(self, constraint: SetDisableTiming) -> None:
        res = self.resolver.resolve(constraint.objects)
        graph = self.graph
        # Cells: disable their cell arcs (filtered by -from/-to pin names).
        for cell_name in res.cells:
            inst = self.netlist.instance(cell_name)
            for pin in inst.pins.values():
                node = graph.node_of(pin.full_name)
                if node is None:
                    continue
                for arc in graph.fanout[node]:
                    if arc.kind == ARC_NET or arc.instance is not inst:
                        continue
                    if constraint.from_pin and \
                            graph.node_obj[arc.src].name != constraint.from_pin:
                        continue
                    if constraint.to_pin and \
                            graph.node_obj[arc.dst].name != constraint.to_pin:
                        continue
                    self.disabled_arcs.add(arc.index)
        # Pins: disable the cell arcs incident to the pin.
        for pin_name in res.pins:
            node = graph.node_of(pin_name)
            if node is None:
                continue
            for arc in graph.fanout[node]:
                if arc.kind != ARC_NET:
                    self.disabled_arcs.add(arc.index)
            for arc in graph.fanin[node]:
                if arc.kind != ARC_NET:
                    self.disabled_arcs.add(arc.index)
        # Ports: break all paths through the port (its net arcs).
        for port_name in res.ports:
            node = graph.node_of(port_name)
            if node is None:
                continue
            for arc in graph.fanout[node]:
                self.disabled_arcs.add(arc.index)
            for arc in graph.fanin[node]:
                self.disabled_arcs.add(arc.index)

    def _bind_clock_sense(self, constraint: SetClockSense) -> None:
        if not constraint.stop_propagation:
            return  # sense polarity filtering is not modeled
        clock_names: List[str]
        if constraint.clocks is None:
            clock_names = ["*"]
        else:
            clock_names = list(
                self.resolver.clock_matches(constraint.clocks.patterns)) \
                or list(constraint.clocks.patterns)
        for node in self._resolve_nodes(constraint.pins):
            self.clock_stops.setdefault(node, set()).update(clock_names)

    def _startpoint_nodes(self, ref: ObjectRef) -> Set[int]:
        """Resolve a -from selection to startpoint nodes.

        Cells map to their clock pins; sequential output pins (``rA/Q``)
        map back to the register's clock pin; input ports stay.
        """
        graph = self.graph
        nodes: Set[int] = set()
        res = self.resolver.resolve(ref)
        for cell_name in res.cells:
            info = graph.seq_info.get(cell_name)
            if info is not None:
                nodes.add(info[0])
        for pin_name in res.pins:
            node = graph.node_of(pin_name)
            if node is None:
                continue
            obj = graph.node_obj[node]
            if isinstance(obj, Pin) and obj.instance.is_sequential:
                info = graph.seq_info.get(obj.instance.name)
                if info is not None and node in info[2]:
                    nodes.add(info[0])  # Q pin -> clock pin
                    continue
            nodes.add(node)
        for port_name in res.ports:
            node = graph.node_of(port_name)
            if node is not None:
                nodes.add(node)
        return nodes

    def _endpoint_nodes(self, ref: ObjectRef) -> Set[int]:
        """Resolve a -to selection to endpoint nodes (cells -> data pins)."""
        graph = self.graph
        nodes: Set[int] = set()
        res = self.resolver.resolve(ref)
        for cell_name in res.cells:
            info = graph.seq_info.get(cell_name)
            if info is not None:
                nodes.update(info[1])
        for pin_name in res.pins:
            node = graph.node_of(pin_name)
            if node is not None:
                nodes.add(node)
        for port_name in res.ports:
            node = graph.node_of(port_name)
            if node is not None:
                nodes.add(node)
        return nodes

    def _bind_exception(self, constraint) -> None:
        spec: PathSpec = constraint.spec
        from_nodes: Set[int] = set()
        from_clocks: Set[str] = set()
        for ref in spec.from_refs:
            if ref.is_clock_ref:
                from_clocks.update(self.resolver.clock_matches(ref.patterns)
                                   or ref.patterns)
            else:
                from_nodes.update(self._startpoint_nodes(ref))
                # AUTO refs may also name clocks.
                from_clocks.update(self.resolver.resolve(ref).clocks)
        to_nodes: Set[int] = set()
        to_clocks: Set[str] = set()
        for ref in spec.to_refs:
            if ref.is_clock_ref:
                to_clocks.update(self.resolver.clock_matches(ref.patterns)
                                 or ref.patterns)
            else:
                to_nodes.update(self._endpoint_nodes(ref))
                to_clocks.update(self.resolver.resolve(ref).clocks)
        through: List[FrozenSet[int]] = []
        for ref in spec.through_refs:
            through.append(frozenset(self._resolve_nodes(ref)))
        self.exceptions.append(BoundException(
            index=len(self.exceptions),
            constraint=constraint,
            from_nodes=frozenset(from_nodes),
            from_clocks=frozenset(from_clocks),
            through=tuple(through),
            to_nodes=frozenset(to_nodes),
            to_clocks=frozenset(to_clocks),
            rise_from=spec.rise_from,
            fall_from=spec.fall_from,
            rise_to=spec.rise_to,
            fall_to=spec.fall_to,
        ))

    def _bind_io_delay(self, constraint, table: Dict[int, List[ExternalDelay]]) -> None:
        for node in self._resolve_nodes(constraint.objects):
            table.setdefault(node, []).append(ExternalDelay(
                node=node,
                clock=constraint.clock,
                value=constraint.value,
                min_flag=constraint.min_flag,
                max_flag=constraint.max_flag,
                clock_fall=constraint.clock_fall,
            ))

    def _bind_clock_groups(self, constraint: SetClockGroups) -> None:
        # Expand each group against the clock namespace; every cross-group
        # clock pair is excluded from timing.
        expanded: List[List[str]] = []
        for group in constraint.groups:
            expanded.append(self.resolver.clock_matches(group) or list(group))
        for i, group_a in enumerate(expanded):
            for group_b in expanded[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        if a != b:
                            self.exclusive_pairs.add(frozenset((a, b)))

    def _bind_clock_latency(self, constraint: SetClockLatency) -> None:
        names = self.resolver.clock_matches(constraint.objects.patterns) \
            or list(constraint.objects.patterns)
        for name in names:
            lo, hi = self.clock_latency.get(name, (0.0, 0.0))
            if constraint.min_flag or constraint.early:
                lo = constraint.value
            elif constraint.max_flag or constraint.late:
                hi = constraint.value
            else:
                lo = hi = constraint.value
            self.clock_latency[name] = (lo, hi)

    def _bind_uncertainty(self, constraint: SetClockUncertainty) -> None:
        if constraint.from_clock or constraint.to_clock:
            key = (constraint.from_clock, constraint.to_clock)
            self.uncertainty[key] = constraint.value
            return
        if constraint.objects is not None:
            names = self.resolver.clock_matches(constraint.objects.patterns) \
                or list(constraint.objects.patterns)
            for name in names:
                self.uncertainty[(name, name)] = constraint.value

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def clock_propagation(self):
        """This mode's (cached) clock propagation result."""
        if not hasattr(self, "_clock_prop"):
            from repro.timing.clocks import ClockPropagation

            self._clock_prop = ClockPropagation(self)
        return self._clock_prop

    def clock_pair_allowed(self, launch: str, capture: str) -> bool:
        """False when the pair is excluded by set_clock_groups."""
        if launch == capture:
            return True
        return frozenset((launch, capture)) not in self.exclusive_pairs

    def stops_clock(self, node: int, clock_name: str) -> bool:
        stops = self.clock_stops.get(node)
        if not stops:
            return False
        return "*" in stops or clock_name in stops

    def uncertainty_for(self, launch: str, capture: str) -> float:
        for key in ((launch, capture), ("", capture), (launch, ""),
                    (capture, capture)):
            if key in self.uncertainty:
                return self.uncertainty[key]
        return 0.0

    def __repr__(self) -> str:
        return (f"BoundMode({self.mode.name!r}, clocks={sorted(self.clocks)}, "
                f"cases={len(self.case_values)}, "
                f"exceptions={len(self.exceptions)})")
