"""Unit tests for rise/fall edge tracking (edge-qualified exceptions)."""

import pytest

from repro.netlist import NetlistBuilder
from repro.sdc import parse_mode
from repro.timing import (
    BoundMode,
    FALSE,
    RelationshipExtractor,
    VALID,
    endpoint_states_by_enumeration,
    named_endpoint_rows,
    run_sta,
    UnitDelayModel,
)
from repro.timing.paths import enumerate_paths, feasible_edge_pairs


@pytest.fixture
def inverter_pair():
    """rA -> buf -> rPos (same edge)  and  rA -> inv -> rNeg (flipped)."""
    b = NetlistBuilder("edges")
    b.inputs("clk", "in1")
    rA = b.dff("rA", d="in1", clk="clk")
    buf = b.buf("buf1", rA.q)
    inv = b.inv("inv1", rA.q)
    b.dff("rPos", d=buf.out, clk="clk")
    b.dff("rNeg", d=inv.out, clk="clk")
    return b.build()


CLK = "create_clock -name c -period 10 [get_ports clk]\n"


class TestBoundEdgeQualifiers:
    def test_flags_bound(self, inverter_pair):
        bound = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -rise_to [get_pins rPos/D]"))
        exc = bound.exceptions[0]
        assert exc.rise_to and not exc.fall_to
        assert exc.has_edge_qualifiers

    def test_completion_edge_gate(self, inverter_pair):
        bound = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -rise_to [get_pins rPos/D]"))
        exc = bound.exceptions[0]
        ep = bound.graph.node("rPos/D")
        assert exc.completes(0, ep, "c", "r")
        assert not exc.completes(0, ep, "c", "f")
        assert exc.completes(0, ep, "c", "*")  # edge-agnostic query

    def test_clock_from_edge_semantics(self, inverter_pair):
        rise = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -rise_from [get_clocks c]")).exceptions[0]
        fall = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -fall_from [get_clocks c]")).exceptions[0]
        sp = 0  # not in from_nodes; clock route
        assert rise.activates(sp, "c", "r")
        assert not fall.activates(sp, "c", "r")


class TestEdgeTrackedRelationships:
    def test_rise_to_splits_states(self, inverter_pair):
        """An FP on rising data at rPos/D leaves the falling instance
        valid: the bundle shows both states."""
        bound = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -rise_to [get_pins rPos/D]"))
        rows = named_endpoint_rows(
            bound, RelationshipExtractor(bound).endpoint_relationships())
        assert rows[("rPos/D", "c", "c")] == frozenset([VALID, FALSE])
        # The other endpoint is untouched.
        assert rows[("rNeg/D", "c", "c")] == frozenset([VALID])

    def test_matches_enumeration_oracle(self, inverter_pair):
        bound = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -rise_to [get_pins rPos/D]\n"
                  "set_false_path -fall_to [get_pins rNeg/D]"))
        extractor = RelationshipExtractor(bound)
        rows = extractor.endpoint_relationships()
        graph = bound.graph
        for ep_name in ("rPos/D", "rNeg/D"):
            ep = graph.node(ep_name)
            oracle = endpoint_states_by_enumeration(bound, ep)
            engine = {key[1:]: states for key, states in rows.items()
                      if key[0] == ep}
            assert engine == oracle, ep_name

    def test_edge_filter_through_states(self, inverter_pair):
        bound = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -rise_to [get_pins rPos/D]"))
        extractor = RelationshipExtractor(bound)
        graph = bound.graph
        sp, ep = graph.node("rA/CP"), graph.node("rPos/D")
        rise = extractor.through_states(sp, ep, [], edge_filter="r")
        fall = extractor.through_states(sp, ep, [], edge_filter="f")
        assert rise[("c", "c")] == frozenset([FALSE])
        assert fall[("c", "c")] == frozenset([VALID])

    def test_inversion_parity(self, inverter_pair):
        """Through the inverter, -rise_to at rNeg/D falsifies the path
        instance launched as a *falling* Q edge."""
        bound = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -rise_to [get_pins rNeg/D]"))
        extractor = RelationshipExtractor(bound)
        graph = bound.graph
        sp, ep = graph.node("rA/CP"), graph.node("rNeg/D")
        rise = extractor.through_states(sp, ep, [], edge_filter="r")
        fall = extractor.through_states(sp, ep, [], edge_filter="f")
        assert rise[("c", "c")] == frozenset([FALSE])
        assert fall[("c", "c")] == frozenset([VALID])

    def test_no_qualifiers_means_no_edge_split(self, inverter_pair):
        bound = BoundMode(inverter_pair, parse_mode(CLK))
        extractor = RelationshipExtractor(bound)
        assert extractor._edge_values() == ("*",)


class TestEdgeAwareSta:
    def test_rise_fp_keeps_fall_instance(self, inverter_pair):
        result = run_sta(
            BoundMode(inverter_pair, parse_mode(
                CLK + "set_false_path -rise_to [get_pins rPos/D]\n"
                      "set_false_path -fall_to [get_pins rPos/D]")),
            UnitDelayModel())
        # Both edges falsified: endpoint not timed at all.
        assert "rPos/D" not in result.endpoint_slacks

    def test_single_edge_fp_still_times(self, inverter_pair):
        result = run_sta(
            BoundMode(inverter_pair, parse_mode(
                CLK + "set_false_path -rise_to [get_pins rPos/D]")),
            UnitDelayModel())
        assert "rPos/D" in result.endpoint_slacks


class TestFeasibleEdgePairs:
    def test_buffer_path_keeps_edges(self, inverter_pair):
        bound = BoundMode(inverter_pair, parse_mode(
            CLK + "set_false_path -rise_to [get_pins rPos/D]"))
        graph = bound.graph
        path = next(enumerate_paths(bound, graph.node("rA/CP"),
                                    graph.node("rPos/D")))
        assert feasible_edge_pairs(bound, path) \
            == [("r", "f"), ("r", "r")]

    def test_xor_path_gives_both(self):
        b = NetlistBuilder("x")
        b.inputs("clk", "in1", "in2")
        rA = b.dff("rA", d="in1", clk="clk")
        x = b.xor2("x1", rA.q, "in2")
        b.dff("rB", d=x.out, clk="clk")
        bound = BoundMode(b.build(), parse_mode(
            CLK + "set_false_path -rise_to [get_pins rB/D]"))
        graph = bound.graph
        path = next(enumerate_paths(bound, graph.node("rA/CP"),
                                    graph.node("rB/D")))
        pairs = feasible_edge_pairs(bound, path)
        assert set(pairs) == {("r", "r"), ("r", "f")}
