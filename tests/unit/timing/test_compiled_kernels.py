"""The compiled timing kernels against reference implementations.

Constant propagation, arc liveness, launch-clock propagation and the
memoized ``_between`` cones run over tables compiled once per timing
graph.  The references below walk the netlist objects the way the
kernels did before compilation: a per-pin evaluation through
``Instance.input_pins()``, a brute-force sensitization per arc, one BFS
per clock and a fresh cone walk.  Every binding of the paper designs and
of the adversarial families -- individual modes and each merged binding
``merge_all`` makes -- must agree with them exactly.
"""

from __future__ import annotations

from collections import deque
from itertools import product

import pytest

from repro.baselines.no_merge import run_sta_all_modes
from repro.core.mergeability import merge_all
from repro.core.steps import MergeContext
from repro.netlist.cells import LOGIC_X
from repro.netlist.netlist import Pin
from repro.obs.metrics import MetricsRegistry, collecting
from repro.timing import BoundMode, propagate_launch_clocks
from repro.timing.graph import ARC_CELL, ARC_LAUNCH, ARC_NET
from repro.timing.relationships import RelationshipExtractor
from repro.workloads import figure2_modes
from repro.workloads.designs import load_design
from repro.workloads.families import build_family, family_names
from repro.workloads.generator import generate

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


def _bindings(design, monkeypatch):
    """Every individual binding plus each merged one ``merge_all`` makes."""
    merged = []
    bind_merged = MergeContext.bind_merged

    def recorded(context):
        bound = bind_merged(context)
        merged.append(bound)
        return bound

    monkeypatch.setattr(MergeContext, "bind_merged", recorded)
    run = merge_all(design.netlist, design.modes)
    monkeypatch.undo()
    assert merged and all(o.result.ok for o in run.outcomes)
    individual = [BoundMode(design.netlist, mode) for mode in design.modes]
    return individual + merged


@pytest.mark.parametrize("name", DESIGNS)
def test_kernels_equal_references(name, monkeypatch):
    design = _design(name)
    for bound in _bindings(design, monkeypatch):
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
        with collecting(registry):
            launches = propagate_launch_clocks(bound)
        assert launches == expected, bound.mode.name
        assert registry.counter("profile.bfs_expansions") == pops

        _check_between(bound, live)


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


def test_figure2_profile_counts():
    """The sweep and the memo keep the hot-loop counts of the walks."""
    design = generate(figure2_modes())
    registry = MetricsRegistry()
    with collecting(registry):
        run = merge_all(design.netlist, design.modes)
    assert registry.counter("profile.bfs_expansions") == 2582
    assert registry.counter("profile.tag_propagations") == 2820
    registry = MetricsRegistry()
    with collecting(registry):
        run_sta_all_modes(design.netlist, design.modes)
        run_sta_all_modes(design.netlist, run.merged_modes())
    assert registry.counter("profile.bfs_expansions") == 285
