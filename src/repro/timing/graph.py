"""Timing graph construction.

The timing graph is the central data structure of the paper: nodes are
design pins/ports, arcs are either *net arcs* (driver pin -> load pin) or
*cell arcs* (input pin -> output pin of one instance).  Sequential cells
contribute *launch arcs* (CP -> Q) that join the clock network to the data
network, and *check arcs* (D vs CP) that define timing endpoints.

Nodes are integer indices into flat arrays for speed; names are kept in a
parallel list.  The graph is built once per netlist and shared by every
mode's analysis (constants, clock propagation, relationships, STA all take
the graph plus per-mode state).

Building the graph also compiles the static structure the per-mode
analyses would otherwise re-derive from the netlist objects for every
binding: the constant-propagation plan (:attr:`TimingGraph.const_plan`)
and, per cell arc, its side inputs and whether it is sensitizable with
every side input unknown (:attr:`TimingGraph.arc_sides`).
"""

from __future__ import annotations

from itertools import product
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.errors import CombinationalLoopError
from repro.netlist.cells import LOGIC_X, ArcKind, Unateness
from repro.netlist.netlist import Instance, Netlist, Pin, Port

# Arc kinds in the graph.
ARC_NET = 0
ARC_CELL = 1
ARC_LAUNCH = 2   # CP -> Q of a sequential cell

# Arc senses (parity tracking for clock polarity).
SENSE_POS = 0
SENSE_NEG = 1
SENSE_NON_UNATE = 2

_SENSE_OF = {
    Unateness.POSITIVE: SENSE_POS,
    Unateness.NEGATIVE: SENSE_NEG,
    Unateness.NON_UNATE: SENSE_NON_UNATE,
}


#: One constant-propagation step: (node, net driver, cell function, input
#: pin names, input nodes, value with every input unknown).  The driver is
#: -1 for a cell output that evaluates its function; otherwise the node
#: copies the driver's value and the other fields are empty.
PlanStep = Tuple[int, int, Optional[Callable], Tuple[str, ...],
                 Tuple[int, ...], object]

#: A cell arc's sensitization data: (cell function of the arc's output,
#: input pin name, side-input pin names, side-input nodes, whether the arc
#: is sensitizable with every side input unknown).
ArcSides = Tuple[Callable, str, Tuple[str, ...], Tuple[int, ...], bool]


def sensitizable(func: Callable, in_name: str, side_names: Sequence[str],
                 fixed: Mapping[str, object]) -> bool:
    """Can toggling input ``in_name`` toggle ``func``'s output?

    Brute-forces the side inputs not in ``fixed`` (library cells have at
    most three inputs), holding the ``fixed`` ones at their values.
    """
    free = [name for name in side_names if name not in fixed]
    for assignment in product((0, 1), repeat=len(free)):
        inputs = dict(fixed)
        inputs.update(zip(free, assignment))
        inputs[in_name] = 0
        low = func(inputs)
        inputs[in_name] = 1
        high = func(inputs)
        if low != high:
            return True
    return False


class Arc:
    """One timing arc (immutable after construction)."""

    __slots__ = ("index", "src", "dst", "kind", "sense", "instance")

    def __init__(self, index: int, src: int, dst: int, kind: int, sense: int,
                 instance: Optional[Instance]):
        self.index = index
        self.src = src
        self.dst = dst
        self.kind = kind
        self.sense = sense
        self.instance = instance  # owning instance for cell/launch arcs


class TimingGraph:
    """Timing graph over a netlist.

    Attributes of note:

    * ``node_names`` — index -> full name (``inst/PIN`` or port name).
    * ``fanout[n]`` / ``fanin[n]`` — lists of :class:`Arc`.
    * ``clock_roots`` — port/pin nodes where clocks can be defined.
    * ``seq_clock_nodes`` — clock input pins of sequential cells.
    * ``seq_data_nodes`` — data input pins of sequential cells (endpoints).
    * ``topo_order`` — topological order over all propagation arcs.
    * ``const_plan`` — the constant-propagation steps, in topological
      order, of every node that is not always X (see :data:`PlanStep`).
    * ``arc_sides[a]`` — :data:`ArcSides` of a cell arc whose output has
      a function; None for every other arc.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.node_names: List[str] = []
        self.node_index: Dict[str, int] = {}
        # Per-node object (Pin or Port).
        self.node_obj: List[object] = []
        self.arcs: List[Arc] = []
        self.fanout: List[List[Arc]] = []
        self.fanin: List[List[Arc]] = []
        self.seq_clock_nodes: Set[int] = set()
        self.seq_data_nodes: Set[int] = set()
        self.seq_output_nodes: Set[int] = set()
        self.input_port_nodes: Set[int] = set()
        self.output_port_nodes: Set[int] = set()
        # instance name -> (clock node, [data nodes], [output nodes])
        self.seq_info: Dict[str, Tuple[int, List[int], List[int]]] = {}
        self._build()
        self.topo_order: List[int] = self._topo_sort()
        self.topo_rank: List[int] = [0] * len(self.node_names)
        for rank, node in enumerate(self.topo_order):
            self.topo_rank[node] = rank
        self.const_plan: List[PlanStep] = self._compile_plan()
        self.arc_sides: List[Optional[ArcSides]] = [
            self._compile_sides(arc) for arc in self.arcs]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_node(self, name: str, obj: object) -> int:
        idx = len(self.node_names)
        self.node_index[name] = idx
        self.node_names.append(name)
        self.node_obj.append(obj)
        self.fanout.append([])
        self.fanin.append([])
        return idx

    def _add_arc(self, src: int, dst: int, kind: int, sense: int,
                 instance: Optional[Instance] = None) -> Arc:
        arc = Arc(len(self.arcs), src, dst, kind, sense, instance)
        self.arcs.append(arc)
        self.fanout[src].append(arc)
        self.fanin[dst].append(arc)
        return arc

    def _build(self) -> None:
        netlist = self.netlist
        for port in netlist.ports:
            idx = self._add_node(port.name, port)
            if port.is_input:
                self.input_port_nodes.add(idx)
            else:
                self.output_port_nodes.add(idx)
        for inst in netlist.instances:
            for pin in inst.pins.values():
                self._add_node(pin.full_name, pin)

        # Net arcs.
        for net in netlist.nets:
            if net.driver is None:
                continue
            src = self.node_index[net.driver.full_name]
            for load in net.loads:
                dst = self.node_index[load.full_name]
                self._add_arc(src, dst, ARC_NET, SENSE_POS)

        # Cell arcs.
        for inst in netlist.instances:
            cell = inst.cell
            for spec in cell.arcs:
                if spec.kind is ArcKind.CHECK:
                    continue
                if not cell.has_pin(spec.from_pin) or not cell.has_pin(spec.to_pin):
                    continue
                src = self.node_index[f"{inst.name}/{spec.from_pin}"]
                dst = self.node_index[f"{inst.name}/{spec.to_pin}"]
                kind = ARC_LAUNCH if spec.kind is ArcKind.LAUNCH else ARC_CELL
                self._add_arc(src, dst, kind, _SENSE_OF[spec.unateness], inst)
            if cell.is_sequential:
                clock_node = self.node_index[f"{inst.name}/{cell.clock_pin}"]
                data_nodes = [self.node_index[f"{inst.name}/{p}"]
                              for p in cell.data_pins if cell.has_pin(p)]
                out_nodes = [self.node_index[f"{inst.name}/{p}"]
                             for p in cell.output_pins_seq if cell.has_pin(p)]
                self.seq_clock_nodes.add(clock_node)
                self.seq_data_nodes.update(data_nodes)
                self.seq_output_nodes.update(out_nodes)
                self.seq_info[inst.name] = (clock_node, data_nodes, out_nodes)

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def _topo_sort(self) -> List[int]:
        n = len(self.node_names)
        indegree = [0] * n
        for arc in self.arcs:
            indegree[arc.dst] += 1
        queue = [i for i in range(n) if indegree[i] == 0]
        order: List[int] = []
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            order.append(node)
            for arc in self.fanout[node]:
                indegree[arc.dst] -= 1
                if indegree[arc.dst] == 0:
                    queue.append(arc.dst)
        if len(order) != n:
            stuck = [self.node_names[i] for i in range(n) if indegree[i] > 0]
            raise CombinationalLoopError(stuck[:10])
        return order

    # ------------------------------------------------------------------
    # compiled tables
    # ------------------------------------------------------------------
    def _compile_plan(self) -> List[PlanStep]:
        """How each node's constant value follows from its inputs.

        A flip-flop output toggles, and a cell output without a function
        or a node without a net driver is unknown: such a node is always
        X unless case-forced, and has no step.
        """
        plan: List[PlanStep] = []
        node_index = self.node_index
        for node in self.topo_order:
            obj = self.node_obj[node]
            if isinstance(obj, Pin) and obj.is_output:
                inst = obj.instance
                cell = inst.cell
                if cell.is_sequential and obj.name in cell.output_pins_seq \
                        and not cell.is_latch:
                    continue
                func = cell.functions.get(obj.name)
                if func is None:
                    continue
                pins = inst.input_pins()
                names = tuple(pin.name for pin in pins)
                idle = func({name: LOGIC_X for name in names})
                plan.append((node, -1, func, names,
                             tuple(node_index[pin.full_name] for pin in pins),
                             idle))
                continue
            for arc in self.fanin[node]:
                if arc.kind == ARC_NET:
                    plan.append((node, arc.src, None, (), (), LOGIC_X))
                    break
        return plan

    def _compile_sides(self, arc: Arc) -> Optional[ArcSides]:
        if arc.kind != ARC_CELL or arc.instance is None:
            return None
        inst = arc.instance
        func = inst.cell.functions.get(self.node_obj[arc.dst].name)
        if func is None:
            return None  # no function: assume propagating (e.g. latches)
        in_name = self.node_obj[arc.src].name
        sides = [pin for pin in inst.input_pins() if pin.name != in_name]
        names = tuple(pin.name for pin in sides)
        return (func, in_name, names,
                tuple(self.node_index[pin.full_name] for pin in sides),
                sensitizable(func, in_name, names, {}))

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        return self.node_index[name]

    def node_of(self, name: str) -> Optional[int]:
        return self.node_index.get(name)

    def name(self, node: int) -> str:
        return self.node_names[node]

    def names(self, nodes: Iterable[int]) -> List[str]:
        return [self.node_names[n] for n in nodes]

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def is_endpoint_node(self, node: int) -> bool:
        return node in self.seq_data_nodes or node in self.output_port_nodes

    def is_startpoint_node(self, node: int) -> bool:
        return node in self.seq_clock_nodes or node in self.input_port_nodes

    def endpoint_nodes(self) -> List[int]:
        """All timing endpoints: sequential data pins + output ports."""
        nodes = sorted(self.seq_data_nodes | self.output_port_nodes)
        return nodes

    def startpoint_nodes(self) -> List[int]:
        """All timing startpoints: sequential clock pins + input ports."""
        nodes = sorted(self.seq_clock_nodes | self.input_port_nodes)
        return nodes

    def instance_of(self, node: int) -> Optional[Instance]:
        obj = self.node_obj[node]
        if isinstance(obj, Pin):
            return obj.instance
        return None

    def __repr__(self) -> str:
        return (f"TimingGraph(nodes={self.node_count}, arcs={self.arc_count}, "
                f"endpoints={len(self.seq_data_nodes) + len(self.output_port_nodes)})")


def build_graph(netlist: Netlist) -> TimingGraph:
    """Build (or fetch the cached) timing graph of ``netlist``.

    The graph is cached on the netlist itself, so it is freed with it.
    Netlists are append-only in this library; a netlist that grew since
    its graph was built gets a new one.
    """
    graph = netlist.derived.get("timing_graph")
    if graph is None or graph.node_count != _expected_nodes(netlist):
        graph = TimingGraph(netlist)
        netlist.derived["timing_graph"] = graph
    return graph


def _expected_nodes(netlist: Netlist) -> int:
    return len(netlist.ports) + sum(len(i.pins) for i in netlist.instances)
