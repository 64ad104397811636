"""Unit tests for timing-graph construction."""

from itertools import product

import pytest

from repro.errors import CombinationalLoopError
from repro.netlist import (LOGIC_X, ArcKind, NetlistBuilder, Pin, PinDirection,
                           Unateness)
from repro.timing import ARC_CELL, ARC_LAUNCH, ARC_NET, TimingGraph, build_graph
from repro.timing.graph import SENSE_NEG, SENSE_NON_UNATE, SENSE_POS


class TestConstruction:
    def test_nodes_cover_pins_and_ports(self, pipeline_netlist):
        graph = build_graph(pipeline_netlist)
        assert graph.node_count == len(pipeline_netlist.ports) + sum(
            len(i.pins) for i in pipeline_netlist.instances)
        assert graph.node("rA/Q") != graph.node("rA/D")
        assert graph.name(graph.node("clk")) == "clk"

    def test_arc_kinds(self, pipeline_netlist):
        graph = build_graph(pipeline_netlist)
        kinds = {a.kind for a in graph.arcs}
        assert kinds == {ARC_NET, ARC_CELL, ARC_LAUNCH}
        launch = [a for a in graph.arcs if a.kind == ARC_LAUNCH]
        assert {(graph.name(a.src), graph.name(a.dst)) for a in launch} \
            == {("rA/CP", "rA/Q"), ("rB/CP", "rB/Q")}

    def test_check_arcs_not_propagation(self, pipeline_netlist):
        graph = build_graph(pipeline_netlist)
        # D -> CP check arcs must not appear as propagation arcs.
        d_node = graph.node("rA/D")
        assert graph.fanout[d_node] == []

    def test_startpoints_endpoints(self, pipeline_netlist):
        graph = build_graph(pipeline_netlist)
        starts = set(graph.names(graph.startpoint_nodes()))
        ends = set(graph.names(graph.endpoint_nodes()))
        assert starts == {"clk", "in1", "rA/CP", "rB/CP"}
        assert ends == {"rA/D", "rB/D", "out1"}

    def test_seq_info(self, pipeline_netlist):
        graph = build_graph(pipeline_netlist)
        cp, data, outs = graph.seq_info["rA"]
        assert graph.name(cp) == "rA/CP"
        assert graph.names(data) == ["rA/D"]
        assert graph.names(outs) == ["rA/Q"]


class TestTopologicalOrder:
    def test_topo_respects_arcs(self, figure1):
        graph = build_graph(figure1)
        for arc in graph.arcs:
            assert graph.topo_rank[arc.src] < graph.topo_rank[arc.dst]

    def test_loop_raises(self):
        b = NetlistBuilder("loop")
        b.input("a")
        u1 = b.gate("OR2", "u1", A="a")
        u2 = b.inv("u2", u1.out)
        b.connect(u2.out, "u1/B")
        with pytest.raises(CombinationalLoopError):
            TimingGraph(b.build())


class TestCaching:
    def test_build_graph_caches_per_netlist(self, pipeline_netlist):
        assert build_graph(pipeline_netlist) is build_graph(pipeline_netlist)

    def test_cache_invalidated_by_growth(self, pipeline_netlist):
        first = build_graph(pipeline_netlist)
        pipeline_netlist.add_instance("extra", "INV")
        second = build_graph(pipeline_netlist)
        assert second is not first
        assert second.node_of("extra/A") is not None

    def test_cache_invalidated_by_a_new_port(self, pipeline_netlist):
        first = build_graph(pipeline_netlist)
        pipeline_netlist.add_port("extra_in", PinDirection.INPUT)
        second = build_graph(pipeline_netlist)
        assert second is not first
        assert second.node_of("extra_in") in second.input_port_nodes
        assert build_graph(pipeline_netlist) is second


def reference_tables(netlist):
    """The graph's tables built the plain way: nodes looked up by name,
    and every arc, plan step and sensitization worked out on its own."""
    objs = list(netlist.ports) + list(netlist.all_pins())
    names = [obj.full_name for obj in objs]
    index = {name: node for node, name in enumerate(names)}
    sense_of = {Unateness.POSITIVE: SENSE_POS, Unateness.NEGATIVE: SENSE_NEG,
                Unateness.NON_UNATE: SENSE_NON_UNATE}
    arcs = []  # (src, dst, kind, sense, instance name)
    for net in netlist.nets:
        if net.driver is not None:
            arcs.extend((index[net.driver.full_name], index[load.full_name],
                         ARC_NET, SENSE_POS, None) for load in net.loads)
    seq_info = {}
    for inst in netlist.instances:
        cell = inst.cell
        for spec in cell.arcs:
            if spec.kind is ArcKind.CHECK or not cell.has_pin(spec.from_pin) \
                    or not cell.has_pin(spec.to_pin):
                continue
            arcs.append((index[f"{inst.name}/{spec.from_pin}"],
                         index[f"{inst.name}/{spec.to_pin}"],
                         ARC_LAUNCH if spec.kind is ArcKind.LAUNCH
                         else ARC_CELL,
                         sense_of[spec.unateness], inst.name))
        if cell.is_sequential:
            seq_info[inst.name] = (
                index[f"{inst.name}/{cell.clock_pin}"],
                [index[f"{inst.name}/{p}"] for p in cell.data_pins
                 if cell.has_pin(p)],
                [index[f"{inst.name}/{p}"] for p in cell.output_pins_seq
                 if cell.has_pin(p)])
    fanout = [[] for _ in names]
    fanin = [[] for _ in names]
    for i, arc in enumerate(arcs):
        fanout[arc[0]].append(i)
        fanin[arc[1]].append(i)

    indegree = [len(arcs_in) for arcs_in in fanin]
    order = [node for node in range(len(names)) if indegree[node] == 0]
    for node in order:  # grows while it is walked: first in, first out
        for i in fanout[node]:
            indegree[arcs[i][1]] -= 1
            if indegree[arcs[i][1]] == 0:
                order.append(arcs[i][1])

    def input_pins(inst):
        return [pin for pin in inst.pins.values() if pin.is_input]

    plan = []
    for node in order:
        obj = objs[node]
        if isinstance(obj, Pin) and obj.is_output:
            cell = obj.instance.cell
            func = cell.functions.get(obj.name)
            if func is None or (cell.is_sequential and not cell.is_latch
                                and obj.name in cell.output_pins_seq):
                continue
            pins = input_pins(obj.instance)
            plan.append((node, -1, func, tuple(p.name for p in pins),
                         tuple(index[p.full_name] for p in pins),
                         func({p.name: LOGIC_X for p in pins})))
            continue
        drivers = [arcs[i][0] for i in fanin[node] if arcs[i][2] == ARC_NET]
        if drivers:
            plan.append((node, drivers[0], None, (), (), LOGIC_X))

    def sensitizable(func, in_name, side_names):
        for values in product((0, 1), repeat=len(side_names)):
            inputs = dict(zip(side_names, values))
            if func({**inputs, in_name: 0}) != func({**inputs, in_name: 1}):
                return True
        return False

    sides = []
    for src, dst, kind, _sense, inst_name in arcs:
        func = None
        if kind == ARC_CELL:
            inst = netlist.instance(inst_name)
            func = inst.cell.functions.get(objs[dst].name)
        if func is None:
            sides.append(None)
            continue
        in_name = objs[src].name
        side_pins = [p for p in input_pins(inst) if p.name != in_name]
        side_names = tuple(p.name for p in side_pins)
        sides.append((func, in_name, side_names,
                      tuple(index[p.full_name] for p in side_pins),
                      sensitizable(func, in_name, side_names)))
    data_fanout = [[i for i in out if arcs[i][2] != ARC_LAUNCH]
                   for out in fanout]
    return {"node_names": names, "arcs": arcs, "topo_order": order,
            "const_plan": plan, "arc_sides": sides,
            "data_fanout": data_fanout, "seq_info": seq_info}


@pytest.mark.parametrize("design", [
    "A", "B", "C", "D", "E", "F",
    "A-held-out", "B-held-out", "C-held-out", "D-held-out", "E-held-out",
    "F-held-out",
    "scan-pairs", "genclock-deep", "exception-stack", "lowpower-retention"])
def test_tables_equal_the_plain_construction(design_netlists, design):
    netlist = design_netlists[design]
    graph = TimingGraph(netlist)
    got = {
        "node_names": graph.node_names,
        "arcs": [(a.src, a.dst, a.kind, a.sense,
                  a.instance.name if a.instance else None)
                 for a in graph.arcs],
        "topo_order": graph.topo_order,
        "const_plan": graph.const_plan,
        "arc_sides": graph.arc_sides,
        "data_fanout": [[a.index for a in out] for out in graph.data_fanout],
        "seq_info": graph.seq_info,
    }
    assert [a.index for a in graph.arcs] == list(range(graph.arc_count))
    assert graph.node_obj == list(netlist.ports) + list(netlist.all_pins())
    want = reference_tables(netlist)
    for table, value in want.items():
        assert got[table] == value, table
