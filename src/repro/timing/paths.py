"""Path enumeration utilities.

Exhaustive path listing is what the 3-pass algorithm avoids, but it is
invaluable for debugging, for small-design reports, and as the ground
truth oracle in tests: ``enumerate_paths`` walks every live path between a
startpoint and an endpoint, and ``path_state`` evaluates the exception
state of one concrete path — the definitionally-correct answer the tag
propagation must agree with (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.timing.context import BoundMode
from repro.timing.graph import ARC_LAUNCH
from repro.timing.states import RelState, resolve_state


@dataclass(frozen=True)
class TimingPath:
    """One concrete path: node sequence plus clocking."""

    nodes: Tuple[int, ...]
    launch_clock: str
    capture_clock: str

    @property
    def startpoint(self) -> int:
        return self.nodes[0]

    @property
    def endpoint(self) -> int:
        return self.nodes[-1]


def enumerate_paths(bound: BoundMode, sp: int, ep: int,
                    clock_prop=None, limit: int = 100000
                    ) -> Iterator[TimingPath]:
    """Yield every live path from startpoint ``sp`` to endpoint ``ep``.

    ``sp`` is a register clock pin or an input port; the walk enters the
    data network through live launch arcs.  Paths are node sequences
    starting at ``sp``.  Raises ``RuntimeError`` past ``limit`` paths to
    protect tests from exponential blowup.
    """
    from repro.timing.clocks import ClockPropagation

    graph = bound.graph
    constants = bound.constants
    if clock_prop is None:
        clock_prop = ClockPropagation(bound)

    launch_clocks: List[str] = []
    obj = graph.node_obj[sp]
    if sp in graph.seq_clock_nodes:
        launch_clocks = sorted(
            clock_prop.register_clocks.get(obj.instance.name, ()))
    else:
        launch_clocks = sorted({
            d.clock for d in bound.input_delays.get(sp, ())
            if d.clock and d.clock in bound.clocks})
    if not launch_clocks:
        return

    capture_clocks: List[str] = []
    ep_obj = graph.node_obj[ep]
    if ep in graph.seq_data_nodes:
        capture_clocks = sorted(
            clock_prop.register_clocks.get(ep_obj.instance.name, ()))
    else:
        capture_clocks = sorted({
            d.clock for d in bound.output_delays.get(ep, ())
            if d.clock and d.clock in bound.clocks})
    if not capture_clocks:
        return

    # Restrict the walk to nodes that can reach ep (keeps it tractable).
    reach_ep: Set[int] = set()
    stack = [ep]
    while stack:
        node = stack.pop()
        if node in reach_ep:
            continue
        reach_ep.add(node)
        for arc in graph.fanin[node]:
            if constants.arc_is_live(arc) and arc.src not in reach_ep:
                stack.append(arc.src)

    count = 0

    def walk(node: int, trail: List[int]) -> Iterator[Tuple[int, ...]]:
        nonlocal count
        if node == ep:
            count += 1
            if count > limit:
                raise RuntimeError(f"more than {limit} paths from "
                                   f"{graph.name(sp)} to {graph.name(ep)}")
            yield tuple(trail)
            return
        for arc in graph.fanout[node]:
            if arc.kind == ARC_LAUNCH and node != sp:
                continue
            if arc.dst not in reach_ep:
                continue
            if not constants.arc_is_live(arc):
                continue
            trail.append(arc.dst)
            yield from walk(arc.dst, trail)
            trail.pop()

    for node_seq in walk(sp, [sp]):
        for lc in launch_clocks:
            for cc in capture_clocks:
                if bound.clock_pair_allowed(lc, cc):
                    yield TimingPath(node_seq, lc, cc)


def path_state(bound: BoundMode, path: TimingPath,
               from_edge: str = "*", end_edge: str = "*") -> RelState:
    """Exact exception state of one concrete path (the oracle).

    ``from_edge`` is the edge at the startpoint (clock edge for register
    launches, data edge for ports); ``end_edge`` the data edge at the
    endpoint.  Both default to "*" (edge-agnostic), which is exact when no
    exception carries rise/fall qualifiers."""
    completed = []
    for exc in bound.exceptions:
        if not exc.activates(path.startpoint, path.launch_clock, from_edge):
            continue
        progress = 0
        for node in path.nodes:
            if progress < len(exc.through) and node in exc.through[progress]:
                progress += 1
        if exc.completes(progress, path.endpoint, path.capture_clock,
                         end_edge):
            completed.append(exc.constraint)
    return resolve_state(completed)


def feasible_edge_pairs(bound: BoundMode, path: TimingPath):
    """The (from_edge, endpoint data edge) pairs path can exhibit.

    Register launches activate on the rising clock edge and can drive
    either data edge; port launches tie the from-edge to the data edge.
    The endpoint edge follows inversion parity, with any non-unate arc on
    the path making both endpoint edges possible."""
    from repro.timing.graph import SENSE_NEG, SENSE_NON_UNATE

    graph = bound.graph
    is_register = path.startpoint in graph.seq_clock_nodes
    # Edges start at the data entry point (Q for registers, the port).
    start_index = 1 if is_register else 0
    parity = 0
    non_unate = False
    nodes = path.nodes[start_index:]
    for src, dst in zip(nodes, nodes[1:]):
        arc = next(a for a in graph.fanout[src] if a.dst == dst)
        if arc.sense == SENSE_NEG:
            parity ^= 1
        elif arc.sense == SENSE_NON_UNATE:
            non_unate = True

    def propagate(start: str):
        if non_unate:
            return ("r", "f")
        if parity:
            return ("f" if start == "r" else "r",)
        return (start,)

    launch_edge = "r"
    if is_register:
        inst = graph.instance_of(path.startpoint)
        if inst is not None:
            launch_edge = inst.cell.active_edge

    pairs = set()
    for start in ("r", "f"):
        from_edge = launch_edge if is_register else start
        for end in propagate(start):
            pairs.add((from_edge, end))
    return sorted(pairs)


def endpoint_states_by_enumeration(bound: BoundMode, ep: int,
                                   clock_prop=None, limit: int = 100000
                                   ) -> Dict[Tuple[str, str], FrozenSet[RelState]]:
    """Ground-truth endpoint relationship states via full enumeration.

    When any exception carries rise/fall qualifiers, every feasible edge
    labeling of every path is evaluated separately (mirroring the
    engine's edge-tracked tags)."""
    graph = bound.graph
    edge_aware = any(exc.has_edge_qualifiers for exc in bound.exceptions)
    rows: Dict[Tuple[str, str], Set[RelState]] = {}
    for sp in graph.startpoint_nodes():
        for path in enumerate_paths(bound, sp, ep, clock_prop, limit):
            key = (path.launch_clock, path.capture_clock)
            if edge_aware:
                for from_edge, end_edge in feasible_edge_pairs(bound, path):
                    rows.setdefault(key, set()).add(
                        path_state(bound, path, from_edge, end_edge))
            else:
                rows.setdefault(key, set()).add(path_state(bound, path))
    return {key: frozenset(states) for key, states in rows.items()}
