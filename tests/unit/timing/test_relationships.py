"""Unit tests for the timing-relationship extraction engine."""

from repro.sdc import parse_mode
from repro.timing import (
    BoundMode,
    FALSE,
    RelState,
    RelationshipExtractor,
    VALID,
    named_endpoint_rows,
    named_pair_rows,
)


def extractor_for(netlist, sdc):
    bound = BoundMode(netlist, parse_mode(sdc))
    return bound, RelationshipExtractor(bound)


class TestEndpointLevel:
    def test_plain_valid(self, pipeline_netlist):
        bound, ex = extractor_for(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
        """)
        rows = named_endpoint_rows(bound, ex.endpoint_relationships())
        assert rows[("rB/D", "c", "c")] == frozenset([VALID])

    def test_table1_states(self, figure1, cs1_mode):
        bound = BoundMode(figure1, cs1_mode)
        rows = named_endpoint_rows(
            bound, RelationshipExtractor(bound).endpoint_relationships())
        assert rows[("rX/D", "clkA", "clkA")] \
            == frozenset([RelState(mcp_setup=2)])
        assert rows[("rY/D", "clkA", "clkA")] == frozenset([FALSE])
        assert rows[("rZ/D", "clkA", "clkA")] == frozenset([VALID])

    def test_unclocked_endpoint_has_no_rows(self, pipeline_netlist):
        bound, ex = extractor_for(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
        """)
        rows = named_endpoint_rows(bound, ex.endpoint_relationships())
        # out1 has no set_output_delay -> no capture clock -> no rows.
        assert not any(key[0] == "out1" for key in rows)

    def test_output_delay_creates_port_rows(self, pipeline_netlist):
        bound, ex = extractor_for(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_output_delay 1 -clock c [get_ports out1]
        """)
        rows = named_endpoint_rows(bound, ex.endpoint_relationships())
        assert rows[("out1", "c", "c")] == frozenset([VALID])

    def test_exclusive_pairs_not_timed(self, pipeline_netlist):
        bound, ex = extractor_for(pipeline_netlist, """
            create_clock -name a -period 10 [get_ports clk]
            create_clock -name b -period 5 -add [get_ports clk]
            set_clock_groups -physically_exclusive -group {a} -group {b}
        """)
        rows = named_endpoint_rows(bound, ex.endpoint_relationships())
        launches = {(lc, cc) for (_ep, lc, cc) in rows}
        assert ("a", "b") not in launches and ("b", "a") not in launches
        assert ("a", "a") in launches and ("b", "b") in launches

    def test_mixed_states_at_reconvergence(self, reconvergent_netlist):
        bound, ex = extractor_for(reconvergent_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -through [get_pins p2/Z]
        """)
        rows = named_endpoint_rows(bound, ex.endpoint_relationships())
        assert rows[("rE/D", "c", "c")] == frozenset([VALID, FALSE])

    def test_clock_mapping_applied(self, pipeline_netlist):
        bound, ex = extractor_for(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
        """)
        rows = named_endpoint_rows(bound, ex.endpoint_relationships(),
                                   {"c": "c_merged"})
        assert ("rB/D", "c_merged", "c_merged") in rows


class TestPairLevel:
    def test_pair_rows_carry_startpoint(self, figure1, cs6_modes):
        mode_a, _ = cs6_modes
        bound = BoundMode(figure1, mode_a)
        ex = RelationshipExtractor(bound)
        rows = named_pair_rows(bound, ex.pair_relationships())
        assert rows[("rA/CP", "rY/D", "clkA", "clkA")] == frozenset([FALSE])
        assert rows[("rB/CP", "rY/D", "clkA", "clkA")] == frozenset([FALSE])

    def test_pair_restriction_to_endpoints(self, figure1, cs6_modes):
        _, mode_b = cs6_modes
        bound = BoundMode(figure1, mode_b)
        ex = RelationshipExtractor(bound)
        target = {bound.graph.node("rY/D")}
        rows = ex.pair_relationships(target)
        endpoints = {ep for (_sp, ep, _lc, _cc) in rows}
        assert endpoints == target

    def test_pass2_splits_reconvergent_blame(self, reconvergent_netlist):
        bound, ex = extractor_for(reconvergent_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -through [get_pins p2/Z]
        """)
        rows = named_pair_rows(bound, ex.pair_relationships())
        # Single startpoint: still ambiguous at pair level.
        assert rows[("rS/CP", "rE/D", "c", "c")] == frozenset([VALID, FALSE])


class TestThroughLevel:
    def test_through_states_split(self, reconvergent_netlist):
        bound, ex = extractor_for(reconvergent_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -through [get_pins p2/Z]
        """)
        graph = bound.graph
        sp, ep = graph.node("rS/CP"), graph.node("rE/D")
        via_buf = ex.through_states(sp, ep, [graph.node("p1/A")])
        via_inv = ex.through_states(sp, ep, [graph.node("p2/A")])
        assert via_buf[("c", "c")] == frozenset([VALID])
        assert via_inv[("c", "c")] == frozenset([FALSE])

    def test_empty_chain_equals_pair(self, reconvergent_netlist):
        bound, ex = extractor_for(reconvergent_netlist, """
            create_clock -name c -period 10 [get_ports clk]
        """)
        graph = bound.graph
        rows = ex.through_states(graph.node("rS/CP"), graph.node("rE/D"), [])
        assert rows[("c", "c")] == frozenset([VALID])

    def test_divergence_nodes(self, reconvergent_netlist):
        bound, ex = extractor_for(reconvergent_netlist, """
            create_clock -name c -period 10 [get_ports clk]
        """)
        graph = bound.graph
        nodes = ex.divergence_nodes(graph.node("rS/CP"), graph.node("rE/D"))
        assert graph.node("rS/Q") in nodes

    def test_branch_pins(self, reconvergent_netlist):
        bound, ex = extractor_for(reconvergent_netlist, """
            create_clock -name c -period 10 [get_ports clk]
        """)
        graph = bound.graph
        pins = ex.branch_pins(graph.node("rS/Q"))
        assert set(graph.names(pins)) == {"p1/A", "p2/A"}
