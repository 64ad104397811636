"""Timing-relationship extraction by tag propagation.

A *timing relationship* (paper Section 2) bundles all paths sharing
(startpoint, endpoint, launch clock, capture clock) and carries the
constraint state of those paths.  This module computes relationship sets at
three granularities, matching the three passes of the refinement algorithm:

* **endpoint level** (pass 1) — state sets per (endpoint, launch clock,
  capture clock), with startpoints bundled;
* **pair level** (pass 2) — per (startpoint, endpoint, ...);
* **through level** (pass 3) — per (startpoint, through-chain, endpoint, ...).

The engine propagates *tags* forward through the data network.  A tag is
``(startpoint?, launch clock, active-exceptions, alive)`` where
``active-exceptions`` is a frozen tuple of ``(exception index,
through-progress)`` pairs for every exception whose ``-from`` condition
matched at the startpoint.  Tag merging at reconvergent nodes is what makes
pass 1 cheap: identically-constrained path bundles collapse to a single
tag, and residual ambiguity (several states at one endpoint) is exactly the
paper's trigger for descending to the next pass.

**Structure-aligned extraction.**  Comparing a merged mode against its
individual modes requires the per-mode states of *the merged mode's paths*:
a path that exists in the merged mode but is killed in mode ``m`` by m's
case analysis contributes "not timed" (FALSE) to m's bundle — it must not
silently vanish, or bundles stop describing the same path sets and the
comparison can mistake "exists only in A with MCP" for "valid everywhere".
Passing ``structure=<merged bound>`` (plus ``clock_map``) makes the
extractor walk the merged mode's liveness and clock network while applying
this mode's constraints: tags turn *dead* when they cross an arc the mode
kills, when the mode lacks the launch clock, or when the capture clock is
absent — and dead tags resolve to FALSE.  Row keys are then in merged
clock names, aligned one-to-one with the merged mode's own rows.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netlist.netlist import Pin, Port
from repro.obs.context import current
from repro.timing.clocks import ClockPropagation
from repro.timing.context import BoundException, BoundMode
from repro.timing.graph import (
    ARC_LAUNCH,
    SENSE_NEG,
    SENSE_NON_UNATE,
    SENSE_POS,
)
from repro.timing.states import FALSE, RelState, resolve_state

# Synthetic exception index used for through-chain restriction.
_CHAIN = -1

# A tag: (sp_node or None, launch clock (output namespace),
#         ((exc_idx, progress), ...) sorted, alive, data edge).
# The edge is 'r'/'f' when edge tracking is on (some exception carries a
# rise/fall qualifier, or a query filters by edge) and '*' otherwise.
Tag = Tuple[Optional[int], str, Tuple[Tuple[int, int], ...], bool, str]

#: arc sense -> data edge before the arc -> data edges after it; a
#: non-unate arc can turn either edge into both ("*" stays untracked)
_EDGES_OF = {
    SENSE_POS: {"r": ("r",), "f": ("f",), "*": ("*",)},
    SENSE_NEG: {"r": ("f",), "f": ("r",), "*": ("*",)},
    SENSE_NON_UNATE: {"r": ("r", "f"), "f": ("r", "f"), "*": ("*",)},
}

#: Relationship rows: key -> frozenset of states.
EndpointRows = Dict[Tuple[int, str, str], FrozenSet[RelState]]
PairRows = Dict[Tuple[int, int, str, str], FrozenSet[RelState]]


class RelationshipExtractor:
    """Extracts relationship rows for one bound mode.

    With ``structure``/``clock_map`` given, rows are computed over the
    structure mode's reachability (see module docstring) and keyed by the
    structure's clock names.
    """

    def __init__(self, bound: BoundMode,
                 clock_prop: Optional[ClockPropagation] = None,
                 structure: Optional[BoundMode] = None,
                 clock_map: Optional[Dict[str, str]] = None):
        self.bound = bound
        self.graph = bound.graph
        self.clock_prop = clock_prop or bound.clock_propagation()
        self.structure = structure
        self.clock_map = dict(clock_map or {})
        #: structure clock name -> this mode's clock name
        self.reverse_clock_map: Dict[str, str] = {
            merged: own for own, merged in self.clock_map.items()}
        # Walk liveness / clock network of the structure when given.
        self._walk = structure if structure is not None else bound
        self._walk_prop = structure.clock_propagation() \
            if structure is not None else self.clock_prop
        # Through-chain restriction for pass-3 queries; () = unrestricted.
        self._chain: tuple = ()
        # Data-edge tracking: on when any exception carries a rise/fall
        # qualifier; individual queries can force it via edge filters.
        self._track_edges = any(exc.has_edge_qualifiers
                                for exc in bound.exceptions)
        self._query_edges = False
        # This mode's exceptions indexed by -from, and memos over them:
        # whether an active tuple is inert (see _inert), the backward
        # cones _advance prunes with, and the state of each tuple of
        # completed exceptions.
        self._from_index = self._index_from()
        self._inert_memo: Dict[Tuple[Tuple[int, int], ...], bool] = {}
        self._cone_cache: Dict[tuple, Set[int]] = {}
        self._states: Dict[Tuple[int, ...], RelState] = {}

    def _edge_values(self) -> Tuple[str, ...]:
        if self._track_edges or self._query_edges:
            return ("r", "f")
        return ("*",)

    def _own_clock(self, structure_name: str) -> Optional[str]:
        """This mode's name for a structure clock (identity w/o structure)."""
        if self.structure is None:
            return structure_name
        return self.reverse_clock_map.get(structure_name)

    # ------------------------------------------------------------------
    # seeds
    # ------------------------------------------------------------------
    def _initial_active(self, sp_node: int, launch_clock: str,
                        from_edge: str = "*") -> List[Tuple[int, int]]:
        """Exceptions whose ``-from`` holds here, in index order, each
        with no ``-through`` group crossed yet.  Only the candidates the
        ``-from`` index names are tested."""
        by_node, by_clock, unconditional = self._from_index
        active = {exc.index for exc in chain(by_node.get(sp_node, ()),
                                             by_clock.get(launch_clock, ()),
                                             unconditional)
                  if exc.activates(sp_node, launch_clock, from_edge)}
        return [(index, 0) for index in sorted(active)]

    def _index_from(self):
        """This mode's exceptions by ``-from`` node, by ``-from`` clock,
        and those without a ``-from`` (which activate everywhere)."""
        by_node: Dict[int, List[BoundException]] = {}
        by_clock: Dict[str, List[BoundException]] = {}
        unconditional: List[BoundException] = []
        for exc in self.bound.exceptions:
            if not exc.has_from:
                unconditional.append(exc)
            for node in exc.from_nodes:
                by_node.setdefault(node, []).append(exc)
            for clock in exc.from_clocks:
                by_clock.setdefault(clock, []).append(exc)
        return by_node, by_clock, unconditional

    def _inert(self, active: Tuple[Tuple[int, int], ...]) -> bool:
        """Can no node change ``active``?

        True when no entry is a pass-3 chain, has a ``-through`` group
        still to cross, or has ``-to`` pins whose cone it could leave:
        :meth:`_advance` then returns ``active`` itself at every node.
        Memoized per tuple.
        """
        inert = self._inert_memo.get(active)
        if inert is None:
            exceptions = self.bound.exceptions
            inert = True
            for idx, progress in active:
                if idx == _CHAIN:
                    inert = False
                    break
                exc = exceptions[idx]
                if progress < len(exc.through) \
                        or (exc.to_nodes and not exc.to_clocks):
                    inert = False
                    break
            self._inert_memo[active] = inert
        return inert

    def _advance(self, active: Tuple[Tuple[int, int], ...], node: int
                 ) -> Tuple[Tuple[int, int], ...]:
        """Advance through-progress of every active exception at ``node``,
        dropping exceptions that can no longer complete.

        Pruning is what keeps tag diversity bounded: once a tag passes the
        last node from which an exception's next ``-through`` group (or its
        ``-to`` pins) is reachable, that exception can never apply to any
        extension of the path, so its entry is removed and tags that differ
        only in doomed exceptions merge.
        """
        if not active or self._inert(active):
            return active
        exceptions = self.bound.exceptions
        changed = False
        out = []
        for idx, progress in active:
            if idx == _CHAIN:
                chain = self._chain
                if progress < len(chain) and node == chain[progress]:
                    progress += 1
                    changed = True
                out.append((idx, progress))
                continue
            exc = exceptions[idx]
            through = exc.through
            if progress < len(through) and node in through[progress]:
                progress += 1
                changed = True
            if progress < len(through):
                if node not in self._reach_cone(("through", idx, progress)):
                    changed = True
                    continue  # next through group unreachable: drop
            elif exc.to_nodes and not exc.to_clocks:
                if node not in self._reach_cone(("to", idx)):
                    changed = True
                    continue  # its -to pins are unreachable: drop
            out.append((idx, progress))
        return tuple(out) if changed else active

    def _reach_cone(self, key) -> Set[int]:
        """Nodes that can still reach the target node set of ``key``.

        Backward cones over raw graph topology (a superset of any mode's
        live reachability, so pruning with them is always sound); computed
        lazily and cached per extractor.
        """
        cache = self._cone_cache
        cone = cache.get(key)
        if cone is not None:
            return cone
        if key[0] == "through":
            targets = self.bound.exceptions[key[1]].through[key[2]]
        else:
            targets = self.bound.exceptions[key[1]].to_nodes
        graph = self.graph
        cone = set(targets)
        stack = list(targets)
        while stack:
            node = stack.pop()
            for arc in graph.fanin[node]:
                if arc.src not in cone:
                    cone.add(arc.src)
                    stack.append(arc.src)
        cache[key] = cone
        return cone

    def _kill(self, active: Tuple[Tuple[int, int], ...]
              ) -> Tuple[Tuple[int, int], ...]:
        """Active set of a dead tag: only chain progress is retained."""
        return tuple((idx, progress) for idx, progress in active
                     if idx == _CHAIN)

    def _seeds(self, carry_sp: bool, subgraph: Optional[Set[int]] = None,
               sp_filter: Optional[Set[int]] = None,
               chain: Sequence[int] = ()) -> Dict[int, Set[Tag]]:
        """Compute seed tags keyed by the node they are injected at."""
        graph = self.graph
        bound = self.bound
        walk = self._walk
        self._chain = tuple(chain)
        seeds: Dict[int, Set[Tag]] = {}

        edges = self._edge_values()

        def add_seed(inject_node: int, sp_node: int, lc_key: str,
                     own_lc: Optional[str], alive: bool,
                     visit_nodes: Sequence[int],
                     from_edge_of=lambda edge: edge) -> None:
            if subgraph is not None and inject_node not in subgraph:
                return
            sp = sp_node if carry_sp else None
            for edge in edges:
                seed_alive = alive
                if seed_alive and own_lc is not None:
                    active = self._initial_active(sp_node, own_lc,
                                                  from_edge_of(edge))
                else:
                    active = []
                    seed_alive = False
                if chain:
                    active.append((_CHAIN, 0))
                active_t: Tuple[Tuple[int, int], ...] = tuple(sorted(active))
                for node in visit_nodes:
                    active_t = self._advance(active_t, node)
                seeds.setdefault(inject_node, set()).add(
                    (sp, lc_key, active_t, seed_alive, edge))

        if sp_filter is None:
            registers = [(inst_name, info[0])
                         for inst_name, info in graph.seq_info.items()]
            ports = list(walk.input_delays.items())
        else:
            named = sorted(sp_filter)
            registers = [(graph.node_obj[node].instance.name, node)
                         for node in named if node in graph.seq_clock_nodes]
            ports = [(node, walk.input_delays[node]) for node in named
                     if node in walk.input_delays]

        for inst_name, cp_node in registers:
            walk_clocks = self._walk_prop.register_clocks.get(inst_name)
            if not walk_clocks:
                continue
            own_clocks = self.clock_prop.register_clocks.get(inst_name, set())
            for arc in graph.fanout[cp_node]:
                if arc.kind != ARC_LAUNCH \
                        or not walk.constants.arc_is_live(arc):
                    continue
                own_launch_live = self.bound.constants.arc_is_live(arc)
                inst = graph.instance_of(cp_node)
                launch_edge = inst.cell.active_edge if inst else "r"
                for lc_key in sorted(walk_clocks):
                    own_lc = self._own_clock(lc_key)
                    alive = (own_lc is not None and own_lc in own_clocks
                             and own_launch_live)
                    add_seed(arc.dst, cp_node, lc_key, own_lc, alive,
                             (cp_node, arc.dst),
                             from_edge_of=lambda _edge, _le=launch_edge: _le)
        for port_node, delays in ports:
            if walk.constants.is_constant(port_node):
                continue
            own_constant = bound.constants.is_constant(port_node)
            own_delays = {d.clock for d in bound.input_delays.get(port_node, ())
                          if d.clock and d.clock in bound.clocks}
            for delay in delays:
                if not delay.clock or delay.clock not in walk.clocks:
                    continue
                lc_key = delay.clock
                own_lc = self._own_clock(lc_key)
                alive = (own_lc is not None and own_lc in own_delays
                         and not own_constant)
                add_seed(port_node, port_node, lc_key, own_lc, alive,
                         (port_node,))
        return seeds

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self, seeds: Dict[int, Set[Tag]],
                   subgraph: Optional[Set[int]] = None) -> Dict[int, Set[Tag]]:
        """Push the seed tags forward in topological order.

        A node whose tags are all inert (:meth:`_inert`) moves its whole
        set with one union across each arc that is live in both the
        walked and this mode's binding and keeps the data edge (edge
        tracking off, or a positive-unate arc): every tag would cross it
        unchanged.  Any other node or arc advances tag by tag.
        """
        graph = self.graph
        walk_constants = self._walk.constants
        walk_live = walk_constants.live
        own_constants = self.bound.constants
        own_live = own_constants.live
        aligned = self.structure is not None
        same_edges = not (self._track_edges or self._query_edges)
        advance = self._advance
        inert_memo = self._inert_memo
        data_fanout = graph.data_fanout
        tags: Dict[int, Set[Tag]] = {n: set(s) for n, s in seeds.items()}
        order = graph.topo_order if subgraph is None else sorted(
            subgraph, key=graph.topo_rank.__getitem__)
        pushed = bulk = 0
        for node in order:
            node_tags = tags.get(node)
            if not node_tags:
                continue
            inert = True
            for tag in node_tags:
                active = tag[2]
                if active:
                    flag = inert_memo.get(active)
                    if flag is None:
                        flag = self._inert(active)
                    if not flag:
                        inert = False
                        break
            count = len(node_tags)
            for arc in data_fanout[node]:
                dst = arc.dst
                if subgraph is not None and dst not in subgraph:
                    continue
                index = arc.index
                live = walk_live[index]
                if live is None:
                    live = walk_constants.arc_is_live(arc)
                if not live:
                    continue
                if aligned:
                    arc_own_live = own_live[index]
                    if arc_own_live is None:
                        arc_own_live = own_constants.arc_is_live(arc)
                else:
                    arc_own_live = True
                bucket = tags.get(dst)
                if bucket is None:
                    bucket = tags[dst] = set()
                pushed += count
                if inert and arc_own_live \
                        and (same_edges or arc.sense == SENSE_POS):
                    bucket |= node_tags
                    bulk += count
                    continue
                edges_of = _EDGES_OF[arc.sense]
                for sp, lc, active, alive, edge in node_tags:
                    if alive and not arc_own_live:
                        new_active = advance(self._kill(active), dst)
                        new_alive = False
                    else:
                        new_active = advance(active, dst)
                        new_alive = alive
                    for new_edge in edges_of[edge]:
                        bucket.add((sp, lc, new_active, new_alive, new_edge))
        metrics = current().metrics
        if metrics.enabled and pushed:
            metrics.inc("profile.tag_propagations", pushed)
            if bulk:
                metrics.inc("profile.tag_bulk_pushes", bulk)
        return tags

    # ------------------------------------------------------------------
    # endpoint state resolution
    # ------------------------------------------------------------------
    def _capture_rows(self, ep_node: int
                      ) -> List[Tuple[str, Optional[str], str]]:
        """(structure capture clock, own capture clock or None,
        capture edge) triples."""
        graph = self.graph
        obj = graph.node_obj[ep_node]
        walk = self._walk
        if isinstance(obj, Pin):
            walk_clocks = self._walk_prop.register_clocks.get(
                obj.instance.name)
            if not walk_clocks:
                return []
            capture_edge = obj.instance.cell.active_edge
            own_clocks = self.clock_prop.register_clocks.get(
                obj.instance.name, set())
            rows = []
            for cc_key in sorted(walk_clocks):
                own_cc = self._own_clock(cc_key)
                if own_cc is not None and own_cc not in own_clocks:
                    own_cc = None
                rows.append((cc_key, own_cc, capture_edge))
            return rows
        # Output port: clocks referenced by set_output_delay; -clock_fall
        # captures on the falling edge of the virtual/reference clock.
        walk_edges: Dict[str, str] = {}
        for delay in walk.output_delays.get(ep_node, ()):
            if delay.clock and delay.clock in walk.clocks:
                walk_edges[delay.clock] = "f" if delay.clock_fall else "r"
        own_names = {d.clock for d in self.bound.output_delays.get(ep_node, ())
                     if d.clock and d.clock in self.bound.clocks}
        rows = []
        for cc_key in sorted(walk_edges):
            own_cc = self._own_clock(cc_key)
            if own_cc is not None and own_cc not in own_names:
                own_cc = None
            rows.append((cc_key, own_cc, walk_edges[cc_key]))
        return rows

    def _state_of(self, tag: Tag, ep_node: int,
                  own_capture: Optional[str],
                  require_chain: int = 0,
                  capture_edge: str = "r") -> Optional[RelState]:
        """Resolve one tag at one endpoint; None if chain not satisfied."""
        bound = self.bound
        sp, own_lc_or_key, active, alive, edge = tag
        chain_ok = require_chain == 0
        completed = []
        for idx, progress in active:
            if idx == _CHAIN:
                chain_ok = progress >= require_chain
                continue
            if not alive or own_capture is None:
                continue
            exc = bound.exceptions[idx]
            if exc.completes(progress, ep_node, own_capture, edge,
                             capture_edge):
                completed.append(idx)
        if not chain_ok:
            return None
        if not alive or own_capture is None:
            return FALSE
        own_lc = self._own_clock(own_lc_or_key) if self.structure is not None \
            else own_lc_or_key
        if own_lc is None \
                or not bound.clock_pair_allowed(own_lc, own_capture):
            return FALSE
        key = tuple(completed)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = resolve_state(
                bound.exceptions[idx].constraint for idx in key)
        return state

    def _collect(self, tags: Dict[int, Set[Tag]],
                 endpoints: Optional[Iterable[int]] = None,
                 require_chain: int = 0,
                 edge_filter: Optional[str] = None):
        """Yield (ep, sp, lc, cc, state) rows from propagated tags.

        Without a structure, not-timed combinations are omitted; with a
        structure they surface as FALSE so rows align with the merged
        mode's rows.
        """
        graph = self.graph
        aligned = self.structure is not None
        walk = self._walk
        ep_nodes = list(endpoints) if endpoints is not None \
            else graph.endpoint_nodes()
        for ep in ep_nodes:
            ep_tags = tags.get(ep)
            if not ep_tags:
                continue
            capture = self._capture_rows(ep)
            if not capture:
                continue
            for tag in ep_tags:
                sp, lc, _active, _alive, edge = tag
                if edge_filter is not None and edge != "*" \
                        and edge != edge_filter:
                    continue
                for cc_key, own_cc, capture_edge in capture:
                    if not walk.clock_pair_allowed(lc, cc_key):
                        # Excluded in the walk structure itself: the
                        # merged mode never times it; skip on both sides.
                        continue
                    if not aligned:
                        if not self.bound.clock_pair_allowed(lc, cc_key):
                            continue
                    state = self._state_of(tag, ep, own_cc, require_chain,
                                           capture_edge)
                    if state is None:
                        continue
                    if not aligned and state.is_false and _alive is False:
                        continue
                    yield ep, sp, lc, cc_key, state

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def endpoint_relationships(self) -> EndpointRows:
        """Pass-1 view: (endpoint, launch clock, capture clock) -> states."""
        tags = self._propagate(self._seeds(carry_sp=False))
        rows: Dict[Tuple[int, str, str], Set[RelState]] = {}
        for ep, _sp, lc, cc, state in self._collect(tags):
            rows.setdefault((ep, lc, cc), set()).add(state)
        return {key: frozenset(states) for key, states in rows.items()}

    def pair_relationships(self, endpoints: Optional[Set[int]] = None
                           ) -> PairRows:
        """Pass-2 view: (startpoint, endpoint, lc, cc) -> states.

        With ``endpoints`` given, propagation is restricted to their
        backward cone (the pass-2 "only ambiguous endpoints" optimization).
        """
        subgraph = None
        if endpoints is not None:
            subgraph = self._backward_cone(endpoints)
        tags = self._propagate(self._seeds(carry_sp=True, subgraph=subgraph),
                               subgraph)
        rows: Dict[Tuple[int, int, str, str], Set[RelState]] = {}
        for ep, sp, lc, cc, state in self._collect(tags, endpoints):
            rows.setdefault((sp, ep, lc, cc), set()).add(state)
        return {key: frozenset(states) for key, states in rows.items()}

    def through_states(self, sp: int, ep: int, chain: Sequence[int],
                       edge_filter: Optional[str] = None
                       ) -> Dict[Tuple[str, str], FrozenSet[RelState]]:
        """Pass-3 view: states of paths sp -> ... chain (in order) ... -> ep.

        ``edge_filter`` ('r' or 'f') restricts to paths whose data edge at
        the endpoint matches — the finest comparison granularity, used when
        edge-qualified exceptions split a single path's state."""
        subgraph = self._between(sp, ep)
        self._query_edges = edge_filter is not None
        try:
            seeds = self._seeds(carry_sp=True, subgraph=subgraph,
                                sp_filter={sp}, chain=chain)
            tags = self._propagate(seeds, subgraph)
            rows: Dict[Tuple[str, str], Set[RelState]] = {}
            for row_ep, row_sp, lc, cc, state in self._collect(
                    tags, [ep], require_chain=len(chain),
                    edge_filter=edge_filter):
                if row_sp != sp:
                    continue
                rows.setdefault((lc, cc), set()).add(state)
            return {key: frozenset(states) for key, states in rows.items()}
        finally:
            self._query_edges = False

    def divergence_nodes(self, sp: int, ep: int) -> List[int]:
        """Topologically-ordered nodes between sp and ep with >= 2 live
        in-subgraph fanout arcs (the split candidates for pass 3)."""
        subgraph = self._between(sp, ep)
        constants = self._walk.constants
        graph = self.graph
        result = []
        for node in sorted(subgraph, key=graph.topo_rank.__getitem__):
            live_out = 0
            for arc in graph.data_fanout[node]:
                if arc.dst in subgraph and constants.arc_is_live(arc):
                    live_out += 1
            if live_out >= 2:
                result.append(node)
        return result

    def branch_pins(self, node: int, subgraph: Optional[Set[int]] = None
                    ) -> List[int]:
        """The fanout destinations of a divergence node (Table 4's
        "through" pins, e.g. ``and2/A`` and ``inv3/A``)."""
        constants = self._walk.constants
        pins = []
        for arc in self.graph.data_fanout[node]:
            if subgraph is not None and arc.dst not in subgraph:
                continue
            if constants.arc_is_live(arc):
                pins.append(arc.dst)
        return pins

    def subgraph_between(self, sp: int, ep: int) -> FrozenSet[int]:
        return self._between(sp, ep)

    # ------------------------------------------------------------------
    # cones (walk-structure liveness)
    # ------------------------------------------------------------------
    def _backward_cone(self, endpoints: Iterable[int]) -> Set[int]:
        graph = self.graph
        constants = self._walk.constants
        visited: Set[int] = set()
        stack = list(endpoints)
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            for arc in graph.fanin[node]:
                if not constants.arc_is_live(arc):
                    continue
                if arc.src not in visited:
                    stack.append(arc.src)
        return visited

    def _forward_cone(self, starts: Iterable[int]) -> Set[int]:
        graph = self.graph
        constants = self._walk.constants
        visited: Set[int] = set()
        stack = list(starts)
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            for arc in graph.fanout[node]:
                if arc.kind == ARC_LAUNCH and node not in starts:
                    continue
                if not constants.arc_is_live(arc):
                    continue
                if arc.dst not in visited:
                    stack.append(arc.dst)
        return visited

    def _between(self, sp: int, ep: int) -> FrozenSet[int]:
        """Nodes on any live path from startpoint sp to endpoint ep.

        Memoized on the walked binding, so every extractor that walks the
        same structure computes each cone once.
        """
        memo = self._walk.between
        nodes = memo.get((sp, ep))
        if nodes is not None:
            return nodes
        graph = self.graph
        starts: Set[int] = {sp}
        # For a register startpoint, enter the data network through Q.
        if sp in graph.seq_clock_nodes:
            constants = self._walk.constants
            for arc in graph.fanout[sp]:
                if arc.kind == ARC_LAUNCH and constants.arc_is_live(arc):
                    starts.add(arc.dst)
        forward = self._forward_cone(starts)
        backward = self._backward_cone([ep])
        nodes = memo[sp, ep] = frozenset((forward & backward) | {sp, ep})
        return nodes


def named_endpoint_rows(bound: BoundMode, rows: EndpointRows,
                        clock_map: Optional[Dict[str, str]] = None
                        ) -> Dict[Tuple[str, str, str], FrozenSet[RelState]]:
    """Convert node-indexed endpoint rows to name-keyed rows, optionally
    renaming clocks through ``clock_map`` (individual -> merged names)."""
    graph = bound.graph
    mapping = clock_map or {}
    out: Dict[Tuple[str, str, str], FrozenSet[RelState]] = {}
    for (ep, lc, cc), states in rows.items():
        key = (graph.name(ep), mapping.get(lc, lc), mapping.get(cc, cc))
        if key in out:
            out[key] = out[key] | states
        else:
            out[key] = states
    return out


def named_pair_rows(bound: BoundMode, rows: PairRows,
                    clock_map: Optional[Dict[str, str]] = None
                    ) -> Dict[Tuple[str, str, str, str], FrozenSet[RelState]]:
    graph = bound.graph
    mapping = clock_map or {}
    out: Dict[Tuple[str, str, str, str], FrozenSet[RelState]] = {}
    for (sp, ep, lc, cc), states in rows.items():
        key = (graph.name(sp), graph.name(ep),
               mapping.get(lc, lc), mapping.get(cc, cc))
        if key in out:
            out[key] = out[key] | states
        else:
            out[key] = states
    return out
