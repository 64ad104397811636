"""The compiled timing kernels against reference implementations.

Constant propagation, arc liveness, launch-clock propagation, clock
propagation, tag propagation (for relationships and STA arrivals),
exception activation and the memoized ``_between`` cones run over
tables compiled once per timing graph and over memos.  The references
below do the work the plain way: a per-pin evaluation through
``Instance.input_pins()``, a brute-force sensitization per arc, one
BFS per clock over ``graph.fanout`` (for launch clocks and for the
clock network), a per-tag push that advances every tag at every arc, a
scan over every exception and a fresh cone walk.  Every binding of the
paper designs and of the adversarial families -- individual modes and
each merged binding ``merge_all`` makes, including those that share
their parent's clock propagation -- must agree with them exactly, and
so must every extractor aligned to a merged binding.  Small random
circuits add the exception mixes the designs lack.  The references are
what the fast paths are checked against, so they stay.
"""

from __future__ import annotations

import sys
from collections import deque
from itertools import product
from pathlib import Path

import pytest

from repro.baselines.no_merge import run_sta_all_modes
from repro.core.mergeability import merge_all
from repro.core.steps import MergeContext
from repro.netlist.cells import LOGIC_X
from repro.netlist.netlist import Pin
from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry
from repro.timing import BoundMode, ClockPropagation, propagate_launch_clocks
from repro.timing.graph import (ARC_CELL, ARC_LAUNCH, ARC_NET, SENSE_NEG,
                                SENSE_POS)
from repro.timing.relationships import _CHAIN, RelationshipExtractor
from repro.timing.sta import StaEngine
from repro.timing.states import resolve_state
from repro.workloads import figure2_modes
from repro.workloads.designs import load_design
from repro.workloads.families import build_family, family_names
from repro.workloads.generator import generate

sys.path.insert(0, str(Path(__file__).parents[2] / "property"))
from circuits import build_random_circuit, build_random_mode  # noqa: E402

#: design A has 95 modes; every this-many-th one is checked
A_STRIDE = 12


# ----------------------------------------------------------------------
# reference implementations
# ----------------------------------------------------------------------
def reference_values(graph, case_values):
    """Per-pin constant evaluation in topological order."""
    values = [LOGIC_X] * graph.node_count
    for node in graph.topo_order:
        forced = case_values.get(node)
        if forced is not None:
            values[node] = forced
            continue
        obj = graph.node_obj[node]
        if isinstance(obj, Pin) and obj.is_output:
            cell = obj.instance.cell
            if cell.is_sequential and obj.name in cell.output_pins_seq \
                    and not cell.is_latch:
                continue
            if cell.functions.get(obj.name) is not None:
                inputs = {pin.name: values[graph.node(pin.full_name)]
                          for pin in obj.instance.input_pins()}
                values[node] = cell.evaluate(obj.name, inputs)
            continue
        drivers = [arc.src for arc in graph.fanin[node]
                   if arc.kind == ARC_NET]
        if drivers:
            values[node] = values[drivers[0]]
    return values


def reference_live(graph, values, disabled, arc):
    """Arc liveness with a brute-force sensitization of every cell arc."""
    if arc.index in disabled:
        return False
    if values[arc.src] != LOGIC_X or values[arc.dst] != LOGIC_X:
        return False
    if arc.kind != ARC_CELL:
        return True
    inst = arc.instance
    out_name = graph.node_obj[arc.dst].name
    func = inst.cell.functions.get(out_name)
    if func is None:
        return True
    in_name = graph.node_obj[arc.src].name
    unknown, fixed = [], {}
    for pin in inst.input_pins():
        if pin.name == in_name:
            continue
        value = values[graph.node(pin.full_name)]
        if value == LOGIC_X:
            unknown.append(pin.name)
        else:
            fixed[pin.name] = value
    for assignment in product((0, 1), repeat=len(unknown)):
        inputs = dict(fixed, **dict(zip(unknown, assignment)))
        inputs[in_name] = 0
        low = func(inputs)
        inputs[in_name] = 1
        if func(inputs) != low:
            return True
    return False


def reference_launch_clocks(bound, live):
    """One BFS per clock; returns (node -> clocks, BFS pops)."""
    graph = bound.graph
    clock_prop = bound.clock_propagation()
    by_clock = {}
    for inst_name, (cp_node, _data, _outs) in graph.seq_info.items():
        for clock_name in clock_prop.register_clocks.get(inst_name, ()):
            for arc in graph.fanout[cp_node]:
                if arc.kind == ARC_LAUNCH and live(arc):
                    by_clock.setdefault(clock_name, set()).add(arc.dst)
    for port_node, delays in bound.input_delays.items():
        if bound.constants.is_constant(port_node):
            continue
        for delay in delays:
            if delay.clock and delay.clock in bound.clocks:
                by_clock.setdefault(delay.clock, set()).add(port_node)
    node_clocks, pops = {}, 0
    for clock_name, starts in by_clock.items():
        visited = set()
        queue = deque(starts)
        while queue:
            node = queue.popleft()
            if node in visited:
                continue
            visited.add(node)
            pops += 1
            node_clocks.setdefault(node, set()).add(clock_name)
            for arc in graph.fanout[node]:
                if arc.kind != ARC_LAUNCH and live(arc) \
                        and arc.dst not in visited:
                    queue.append(arc.dst)
    return node_clocks, pops


def reference_clock_propagation(bound, live):
    """One BFS per clock over ``graph.fanout``; returns (node -> clocks,
    register -> clocks, BFS pops)."""
    graph = bound.graph
    consumed = {}
    for clock in bound.clocks.values():
        if clock.is_generated and clock.master:
            for node in clock.source_nodes:
                consumed.setdefault(node, set()).add(clock.master)
    node_clocks, pops = {}, 0
    for clock in bound.clocks.values():
        if clock.is_virtual:
            continue
        visited = set()
        queue = deque(clock.source_nodes)
        while queue:
            node = queue.popleft()
            if node in visited:
                continue
            visited.add(node)
            pops += 1
            if bound.stops_clock(node, clock.name):
                continue
            if not clock.is_generated \
                    and clock.name in consumed.get(node, ()) \
                    and node not in clock.source_nodes:
                continue  # the generated clock takes over here
            node_clocks.setdefault(node, set()).add(clock.name)
            for arc in graph.fanout[node]:
                if arc.kind != ARC_LAUNCH and live(arc) \
                        and arc.dst not in visited:
                    queue.append(arc.dst)
    register_clocks = {
        inst_name: node_clocks[cp_node]
        for inst_name, (cp_node, _data, _outs) in graph.seq_info.items()
        if node_clocks.get(cp_node)}
    return node_clocks, register_clocks, pops


def reference_initial_active(bound, sp_node, launch_clock, from_edge):
    """Every exception tested at the startpoint."""
    return [(exc.index, 0) for exc in bound.exceptions
            if exc.activates(sp_node, launch_clock, from_edge)]


def reference_advance(extractor, active, node):
    """Every active entry advanced and pruned at ``node``, no memo."""
    out = []
    for idx, progress in active:
        if idx == _CHAIN:
            chain = extractor._chain
            if progress < len(chain) and node == chain[progress]:
                progress += 1
            out.append((idx, progress))
            continue
        exc = extractor.bound.exceptions[idx]
        through = exc.through
        if progress < len(through) and node in through[progress]:
            progress += 1
        if progress < len(through):
            if node not in extractor._reach_cone(("through", idx, progress)):
                continue
        elif exc.to_nodes and not exc.to_clocks:
            if node not in extractor._reach_cone(("to", idx)):
                continue
        out.append((idx, progress))
    return tuple(out)


def reference_edges(sense, edge):
    """The data edges after an arc of ``sense``."""
    if sense == SENSE_POS or edge == "*":
        return (edge,)
    if sense == SENSE_NEG:
        return ({"r": "f", "f": "r"}[edge],)
    return ("r", "f")


def reference_propagate(extractor, seeds, subgraph=None):
    """Every tag advanced across every live arc, one at a time."""
    graph = extractor.graph
    walk = extractor._walk.constants
    own = extractor.bound.constants
    aligned = extractor.structure is not None
    tags = {node: set(node_tags) for node, node_tags in seeds.items()}
    order = graph.topo_order if subgraph is None else sorted(
        subgraph, key=graph.topo_rank.__getitem__)
    for node in order:
        node_tags = tags.get(node)
        if not node_tags:
            continue
        for arc in graph.fanout[node]:
            if arc.kind == ARC_LAUNCH or not walk.arc_is_live(arc):
                continue
            if subgraph is not None and arc.dst not in subgraph:
                continue
            arc_own_live = not aligned or own.arc_is_live(arc)
            bucket = tags.setdefault(arc.dst, set())
            for sp, lc, active, alive, edge in node_tags:
                if alive and not arc_own_live:
                    active = tuple(entry for entry in active
                                   if entry[0] == _CHAIN)
                    alive = False
                new_active = reference_advance(extractor, active, arc.dst)
                for new_edge in reference_edges(arc.sense, edge):
                    bucket.add((sp, lc, new_active, alive, new_edge))
    return tags


def reference_relax(engine, arrivals):
    """STA windows pushed tag by tag across every live arc."""
    graph = engine.graph
    constants = engine.bound.constants
    for node in graph.topo_order:
        bucket = arrivals.get(node)
        if not bucket:
            continue
        for arc in graph.fanout[node]:
            if arc.kind == ARC_LAUNCH or not constants.arc_is_live(arc):
                continue
            delay = engine.delay_model.arc_delay(graph, arc)
            target = arrivals.setdefault(arc.dst, {})
            for (lc, ledge, active, edge), (lo, hi) in bucket.items():
                new_active = reference_advance(engine._extractor, active,
                                               arc.dst)
                for new_edge in reference_edges(arc.sense, edge):
                    key = (lc, ledge, new_active, new_edge)
                    old = target.get(key, (lo + delay, hi + delay))
                    target[key] = (min(old[0], lo + delay),
                                   max(old[1], hi + delay))
    return arrivals


def reference_between(graph, live, sp, ep):
    """Nodes on a live path from sp to ep, walked afresh."""
    starts = {sp}
    if sp in graph.seq_clock_nodes:
        starts.update(arc.dst for arc in graph.fanout[sp]
                      if arc.kind == ARC_LAUNCH and live(arc))
    forward, stack = set(), list(starts)
    while stack:
        node = stack.pop()
        if node in forward:
            continue
        forward.add(node)
        for arc in graph.fanout[node]:
            if arc.kind == ARC_LAUNCH and node not in starts:
                continue
            if live(arc):
                stack.append(arc.dst)
    backward, stack = set(), [ep]
    while stack:
        node = stack.pop()
        if node in backward:
            continue
        backward.add(node)
        stack.extend(arc.src for arc in graph.fanin[node] if live(arc))
    return (forward & backward) | {sp, ep}


# ----------------------------------------------------------------------
# the bindings under test
# ----------------------------------------------------------------------
DESIGNS = ["A", *"BCDEF"] + [f"{family}-{seed}" for family in family_names()
                             for seed in range(3)]


def _design(name):
    if name == "A":
        # Design A has 95 modes: keep two of its groups and a sample.
        design = load_design("A")
        groups = [group for group in design.expected_groups
                  if len(group) > 1]
        keep = {mode for group in groups[:2] for mode in group}
        keep.update(mode.name for mode in design.modes[::A_STRIDE])
        design.modes = [mode for mode in design.modes if mode.name in keep]
        return design
    if len(name) == 1:
        return load_design(name)
    family, seed = name.rsplit("-", 1)
    return build_family(family, int(seed))


def _merges(design, monkeypatch):
    """(context, merged binding) for each merged binding ``merge_all``
    makes, the scan's mock merges included."""
    merged = []
    bind_merged = MergeContext.bind_merged

    def recorded(context):
        bound = bind_merged(context)
        merged.append((context, bound))
        return bound

    monkeypatch.setattr(MergeContext, "bind_merged", recorded)
    run = merge_all(design.netlist, design.modes)
    monkeypatch.undo()
    assert merged and all(o.result.ok for o in run.outcomes)
    return merged


def _bindings(design, merges):
    """Every individual binding plus each merged one ``merge_all`` makes."""
    individual = [BoundMode(design.netlist, mode) for mode in design.modes]
    return individual + [bound for _context, bound in merges]


@pytest.mark.parametrize("name", DESIGNS)
def test_kernels_equal_references(name, monkeypatch):
    design = _design(name)
    merges = _merges(design, monkeypatch)
    for bound in _bindings(design, merges):
        graph = bound.graph
        constants = bound.constants

        values = reference_values(graph, bound.case_values)
        assert constants.values == values, bound.mode.name

        reference = [reference_live(graph, values, bound.disabled_arcs, arc)
                     for arc in graph.arcs]
        assert [constants.arc_is_live(arc) for arc in graph.arcs] \
            == reference, bound.mode.name

        def live(arc):
            return reference[arc.index]

        expected, pops = reference_launch_clocks(bound, live)
        registry = MetricsRegistry()
        with observing(metrics=registry):
            launches = propagate_launch_clocks(bound)
        assert launches == expected, bound.mode.name
        assert registry.counter("profile.bfs_expansions") == pops

        _check_clock_propagation(bound, live)
        _check_initial_active(bound)
        _check_propagate(RelationshipExtractor(bound))
        _check_sta_relaxation(bound)
        _check_between(bound, live)
    for context, merged in merges:
        for mode, own in zip(context.modes, context.bound_individuals()):
            _check_propagate(RelationshipExtractor(
                own, structure=merged,
                clock_map=context.clock_maps[mode.name]))


def _check_clock_propagation(bound, live):
    """A fresh and the binding's own (maybe shared) propagation equal one
    BFS per clock, and hand out frozensets."""
    node_clocks, register_clocks, pops = reference_clock_propagation(
        bound, live)
    registry = MetricsRegistry()
    with observing(metrics=registry):
        fresh = ClockPropagation(bound)
    assert registry.counter("profile.bfs_expansions") == pops
    for prop in (fresh, bound.clock_propagation()):
        assert prop.node_clocks == node_clocks, bound.mode.name
        assert prop.register_clocks == register_clocks, bound.mode.name
        assert all(isinstance(names, frozenset)
                   for names in prop.node_clocks.values())
    own = bound.clock_propagation()
    assert own.graph is bound.graph
    assert own.mode_name == bound.mode.name


def _check_initial_active(bound):
    """Activation from the ``-from`` index equals a scan of every
    exception, for every startpoint, launch clock and edge."""
    extractor = RelationshipExtractor(bound)
    for sp in bound.graph.startpoint_nodes():
        for clock_name in bound.clocks:
            for edge in ("*", "r", "f"):
                assert extractor._initial_active(sp, clock_name, edge) \
                    == reference_initial_active(bound, sp, clock_name, edge)


def _check_propagate(extractor):
    """Pass-1 seeds over the whole graph, pass-2 seeds over one endpoint
    cone and a pass-3 chain query, the last two with the data edge
    tracked as an edge-filtered query tracks it, each propagate to the
    per-tag reference's tags; every memoized state is the one
    ``resolve_state`` gives."""
    graph = extractor.graph
    seeds = extractor._seeds(carry_sp=False)
    tags = extractor._propagate(seeds)
    assert tags == reference_propagate(extractor, seeds)
    endpoints = [ep for ep in graph.endpoint_nodes() if tags.get(ep)]
    if endpoints:
        ep = endpoints[len(endpoints) // 2]
        cone = extractor._backward_cone([ep])
        starts = sorted(node for node in cone
                        if graph.is_startpoint_node(node))
        extractor._query_edges = True
        try:
            seeds = extractor._seeds(carry_sp=True, subgraph=cone)
            assert extractor._propagate(seeds, cone) \
                == reference_propagate(extractor, seeds, cone)
            if starts:
                sp = starts[len(starts) // 2]
                between = extractor.subgraph_between(sp, ep)
                chain = extractor.divergence_nodes(sp, ep)[:1]
                seeds = extractor._seeds(carry_sp=True, subgraph=between,
                                         sp_filter={sp}, chain=chain)
                assert extractor._propagate(seeds, between) \
                    == reference_propagate(extractor, seeds, between)
        finally:
            extractor._query_edges = False
    for _row in extractor._collect(tags):
        pass  # resolves every pass-1 row, filling the state memo
    for completed, state in extractor._states.items():
        assert state == resolve_state(
            extractor.bound.exceptions[idx].constraint for idx in completed)


def _check_sta_relaxation(bound):
    """STA's arrival windows from the same seeds equal the per-tag
    reference's."""
    engine = StaEngine(bound)
    arrivals = engine._seed_arrivals()
    expected = reference_relax(
        engine, {node: dict(bucket) for node, bucket in arrivals.items()})
    engine._relax(arrivals)
    assert arrivals == expected, bound.mode.name


def _check_between(bound, live):
    """A memoized cone equals a fresh walk, and extractors share it."""
    graph = bound.graph
    extractor = RelationshipExtractor(bound)
    endpoints = graph.endpoint_nodes()[::7][:6]
    startpoints = graph.startpoint_nodes()
    for ep in endpoints:
        cone = extractor._backward_cone([ep])
        for sp in [n for n in startpoints if n in cone][:3]:
            expected = reference_between(graph, live, sp, ep)
            first = extractor.subgraph_between(sp, ep)
            assert first == expected
            again = RelationshipExtractor(bound).subgraph_between(sp, ep)
            assert again is first
            assert bound.between[sp, ep] is first


@pytest.mark.parametrize("seed", range(40))
def test_tag_kernels_on_random_modes(seed):
    """Small random circuits with XOR gates and modes that mix
    clock-selected exceptions (inert once active) with ``-through``,
    ``-to`` pin and edge-qualified ones: whole-set and per-tag pushes
    meet in one propagation, for relationships and for STA, with the
    data edge tracked and without."""
    netlist = build_random_circuit(seed, 6 + seed % 3, 2 + seed % 3,
                                   seed % 2 == 0)
    bound = BoundMode(netlist, build_random_mode(
        netlist, seed, "m", clock_exceptions=True))
    extractor = RelationshipExtractor(bound)
    for query_edges in (False, True):
        extractor._query_edges = query_edges
        seeds = extractor._seeds(carry_sp=True)
        assert extractor._propagate(seeds) \
            == reference_propagate(extractor, seeds)
    extractor._query_edges = False
    _check_sta_relaxation(bound)


def test_figure2_profile_counts():
    """The sweep and the memo keep the hot-loop counts of the walks.

    The validation of each group adopts the 3-pass's individual-mode
    rows, so it propagates tags and clocks for the merged side only, yet
    still compares every row.  A merged binding extended by constraints
    that move no clock shares its parent's clock propagation instead of
    walking the clock network again; most tags cross arcs in whole
    inert sets.
    """
    design = generate(figure2_modes())
    registry = MetricsRegistry()
    with observing(metrics=registry):
        run = merge_all(design.netlist, design.modes)
    assert registry.counter("profile.bfs_expansions") == 1988
    assert registry.counter("profile.tag_propagations") == 1762
    assert registry.counter("profile.tag_bulk_pushes") == 1653
    assert registry.counter("profile.relationship_comparisons") == 92
    registry = MetricsRegistry()
    with observing(metrics=registry):
        run_sta_all_modes(design.netlist, design.modes)
        run_sta_all_modes(design.netlist, run.merged_modes())
    assert registry.counter("profile.bfs_expansions") == 285
