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
binding: the constant-propagation plan (:attr:`TimingGraph.const_plan`),
per cell arc its side inputs and whether it is sensitizable with every
side input unknown (:attr:`TimingGraph.arc_sides`), and per node the
fanout arcs the clock and data walkers follow
(:attr:`TimingGraph.data_fanout`).  What of these depends only on the
cell type (arcs, functions, side inputs, sensitizability, the value with
every input unknown) is compiled once per cell type and build, by pin
offset within an instance; an instance's nodes are numbered
consecutively, so its tables are the cell type's shifted by its first
node.
"""

from __future__ import annotations

from itertools import product
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.errors import CombinationalLoopError
from repro.netlist.cells import LOGIC_X, ArcKind, CellType, Unateness
from repro.netlist.netlist import Instance, Netlist, Pin

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


class _CellTables:
    """What each instance of one cell type adds to the graph, with its
    nodes as offsets from the instance's first node (its pins in order).

    * ``arcs`` — per propagation arc: (source, sink, kind, sense, sides),
      where sides is the :data:`ArcSides` of a cell arc whose output has
      a function, with side-input offsets, and None otherwise.
    * ``steps`` — per output pin: its constant-propagation step as (cell
      function, input pin names, input offsets, value with every input
      unknown), or None when the pin is always X.
    * ``seq`` — (clock, data, outputs) offsets of a sequential cell.
    """

    __slots__ = ("pin_names", "arcs", "steps", "seq")

    def __init__(self, cell: CellType, pin_names: Sequence[str]):
        self.pin_names = tuple(pin_names)
        offset = {name: i for i, name in enumerate(self.pin_names)}
        inputs = [name for name in self.pin_names if cell.pin(name).is_input]
        self.arcs: List[Tuple[int, int, int, int, Optional[ArcSides]]] = []
        for spec in cell.arcs:
            if spec.kind is ArcKind.CHECK:
                continue
            if not cell.has_pin(spec.from_pin) or not cell.has_pin(spec.to_pin):
                continue
            sides = None
            if spec.kind is ArcKind.LAUNCH:
                kind = ARC_LAUNCH
            else:
                kind = ARC_CELL
                func = cell.functions.get(spec.to_pin)
                if func is not None:  # else assume propagating (latches)
                    names = tuple(name for name in inputs
                                  if name != spec.from_pin)
                    sides = (func, spec.from_pin, names,
                             tuple(offset[name] for name in names),
                             sensitizable(func, spec.from_pin, names, {}))
            self.arcs.append((offset[spec.from_pin], offset[spec.to_pin],
                              kind, _SENSE_OF[spec.unateness], sides))
        # A flip-flop output toggles, and an output without a function is
        # unknown: such a pin is always X unless case-forced.
        self.steps: Dict[int, Optional[tuple]] = {}
        names = tuple(inputs)
        for name in self.pin_names:
            if not cell.pin(name).is_output:
                continue
            func = cell.functions.get(name)
            if func is None or (cell.is_sequential and not cell.is_latch
                                and name in cell.output_pins_seq):
                self.steps[offset[name]] = None
            else:
                self.steps[offset[name]] = (
                    func, names, tuple(offset[pin] for pin in names),
                    func({pin: LOGIC_X for pin in names}))
        self.seq: Optional[Tuple[int, List[int], List[int]]] = None
        if cell.is_sequential:
            self.seq = (offset[cell.clock_pin],
                        [offset[p] for p in cell.data_pins if p in offset],
                        [offset[p] for p in cell.output_pins_seq
                         if p in offset])


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
    * ``data_fanout[n]`` — ``fanout[n]`` without launch arcs: what clock,
      launch-clock and tag propagation walk.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.node_names: List[str] = []
        self.node_index: Dict[str, int] = {}
        # Per-node object (Pin or Port).
        self.node_obj: List[object] = []
        self.arcs: List[Arc] = []
        self.seq_clock_nodes: Set[int] = set()
        self.seq_data_nodes: Set[int] = set()
        self.seq_output_nodes: Set[int] = set()
        self.input_port_nodes: Set[int] = set()
        self.output_port_nodes: Set[int] = set()
        # instance name -> (clock node, [data nodes], [output nodes])
        self.seq_info: Dict[str, Tuple[int, List[int], List[int]]] = {}
        self.arc_sides: List[Optional[ArcSides]] = []
        # cell output node -> its plan step payload, None if always X
        steps: Dict[int, Optional[tuple]] = {}
        self._build(steps)
        self.topo_order: List[int] = self._topo_sort()
        self.topo_rank: List[int] = [0] * len(self.node_names)
        for rank, node in enumerate(self.topo_order):
            self.topo_rank[node] = rank
        self.const_plan: List[PlanStep] = self._compile_plan(steps)
        self.data_fanout: List[Tuple[Arc, ...]] = list(map(tuple, self.fanout))
        for node in {arc.src for arc in self.arcs if arc.kind == ARC_LAUNCH}:
            self.data_fanout[node] = tuple(
                arc for arc in self.fanout[node] if arc.kind != ARC_LAUNCH)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, steps: Dict[int, Optional[tuple]]) -> None:
        netlist = self.netlist
        names = self.node_names
        objs = self.node_obj
        node_of: Dict[object, int] = {}  # Pin or Port -> node
        for port in netlist.ports:
            node_of[port] = len(names)
            if port.is_input:
                self.input_port_nodes.add(len(names))
            else:
                self.output_port_nodes.add(len(names))
            names.append(port.name)
            objs.append(port)
        tables: Dict[int, _CellTables] = {}  # id(cell type) -> tables
        placed: List[Tuple[Instance, int, _CellTables]] = []
        for inst in netlist.instances:
            pins = inst.pins
            table = tables.get(id(inst.cell))
            if table is None:
                table = tables[id(inst.cell)] = _CellTables(inst.cell, pins)
            base = len(names)
            placed.append((inst, base, table))
            prefix = inst.name + "/"
            names.extend([prefix + name for name in table.pin_names])
            objs.extend(pins.values())
            node_of.update(zip(pins.values(), range(base, len(names))))
        self.node_index.update(zip(names, range(len(names))))
        fanout = self.fanout = [[] for _ in names]
        fanin = self.fanin = [[] for _ in names]
        arcs = self.arcs

        # Net arcs.
        for net in netlist.nets:
            if net.driver is None:
                continue
            src = node_of[net.driver]
            out = fanout[src]
            for load in net.loads:
                dst = node_of[load]
                arc = Arc(len(arcs), src, dst, ARC_NET, SENSE_POS, None)
                arcs.append(arc)
                out.append(arc)
                fanin[dst].append(arc)
        arc_sides = self.arc_sides
        arc_sides.extend([None] * len(arcs))

        # Cell arcs.
        for inst, base, table in placed:
            for src, dst, kind, sense, sides in table.arcs:
                src += base
                dst += base
                arc = Arc(len(arcs), src, dst, kind, sense, inst)
                arcs.append(arc)
                fanout[src].append(arc)
                fanin[dst].append(arc)
                if sides is not None:
                    func, in_name, side_names, offsets, live = sides
                    sides = (func, in_name, side_names,
                             tuple([base + o for o in offsets]), live)
                arc_sides.append(sides)
            for offset, step in table.steps.items():
                if step is not None:
                    func, in_names, offsets, idle = step
                    step = (func, in_names,
                            tuple([base + o for o in offsets]), idle)
                steps[base + offset] = step
            if table.seq is not None:
                clock, data, outs = table.seq
                data_nodes = [base + o for o in data]
                out_nodes = [base + o for o in outs]
                self.seq_clock_nodes.add(base + clock)
                self.seq_data_nodes.update(data_nodes)
                self.seq_output_nodes.update(out_nodes)
                self.seq_info[inst.name] = (base + clock, data_nodes,
                                            out_nodes)

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
    def _compile_plan(self, steps: Dict[int, Optional[tuple]]
                      ) -> List[PlanStep]:
        """How each node's constant value follows from its inputs.

        A cell output evaluates its function (``steps``; None when it is
        always X unless case-forced); any other node copies its net
        driver, and a node without one is always X and has no step.
        """
        plan: List[PlanStep] = []
        fanin = self.fanin
        for node in self.topo_order:
            if node in steps:
                step = steps[node]
                if step is not None:
                    plan.append((node, -1) + step)
                continue
            for arc in fanin[node]:
                if arc.kind == ARC_NET:
                    plan.append((node, arc.src, None, (), (), LOGIC_X))
                    break
        return plan

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
    if graph is None or graph.node_count != netlist.connectable_count:
        graph = TimingGraph(netlist)
        netlist.derived["timing_graph"] = graph
    return graph
