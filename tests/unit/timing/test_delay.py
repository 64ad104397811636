"""Unit tests for the delay models."""

import pytest

from repro.netlist import NetlistBuilder
from repro.timing import (
    ARC_LAUNCH,
    DEFAULT_DELAY_MODEL,
    UnitDelayModel,
    WireLoadDelayModel,
    build_graph,
)
from repro.timing.delay import resolve_model


@pytest.fixture
def fanout_netlist():
    b = NetlistBuilder("t")
    b.input("a")
    inv = b.inv("u1", "a")
    # Three loads on u1/Z.
    b.buf("l1", inv.out)
    b.buf("l2", inv.out)
    b.buf("l3", inv.out)
    return b.build()


def arc_of(graph, src, dst):
    for arc in graph.fanout[graph.node(src)]:
        if graph.name(arc.dst) == dst:
            return arc
    raise AssertionError


class TestUnitModel:
    def test_cell_arcs_cost_one(self, fanout_netlist):
        graph = build_graph(fanout_netlist)
        model = UnitDelayModel()
        assert model.arc_delay(graph, arc_of(graph, "u1/A", "u1/Z")) == 1.0
        assert model.arc_delay(graph, arc_of(graph, "u1/Z", "l1/A")) == 0.0


class TestWireLoadModel:
    def test_fanout_term(self, fanout_netlist):
        graph = build_graph(fanout_netlist)
        model = WireLoadDelayModel(slope=0.1)
        arc = arc_of(graph, "u1/A", "u1/Z")
        base = fanout_netlist.instance("u1").cell.base_delay
        assert model.arc_delay(graph, arc) == pytest.approx(base + 0.3)

    def test_net_arcs_configurable(self, fanout_netlist):
        graph = build_graph(fanout_netlist)
        model = WireLoadDelayModel(net_delay=0.25)
        arc = arc_of(graph, "u1/Z", "l2/A")
        assert model.arc_delay(graph, arc) == 0.25

    def test_memoization(self, fanout_netlist):
        graph = build_graph(fanout_netlist)
        model = WireLoadDelayModel()
        arc = arc_of(graph, "u1/A", "u1/Z")
        assert model.arc_delay(graph, arc) == model.arc_delay(graph, arc)
        assert (id(graph), arc.index) in model._cache

    def test_sequential_base_delay(self):
        b = NetlistBuilder("t")
        b.inputs("clk", "d")
        b.dff("r1", d="d", clk="clk")
        graph = build_graph(b.build())
        model = WireLoadDelayModel(slope=0.0)
        launch = next(a for a in graph.arcs if a.kind == ARC_LAUNCH)
        assert model.arc_delay(graph, launch) == pytest.approx(1.5)


class TestResolve:
    def test_default(self):
        assert resolve_model(None) is DEFAULT_DELAY_MODEL

    def test_explicit(self):
        model = UnitDelayModel()
        assert resolve_model(model) is model
