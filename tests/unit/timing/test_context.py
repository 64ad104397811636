"""Unit tests for mode binding (BoundMode)."""

import pytest

from repro.netlist import NetlistBuilder
from repro.sdc import parse_mode
from repro.timing import BoundMode, RelationshipExtractor


def bind(netlist, sdc, name="m"):
    return BoundMode(netlist, parse_mode(sdc, name))


class TestClockBinding:
    def test_clock_sources_resolved(self, pipeline_netlist):
        bound = bind(pipeline_netlist,
                     "create_clock -name c -period 10 [get_ports clk]")
        clock = bound.clocks["c"]
        assert clock.period == 10
        assert clock.waveform == (0.0, 5.0)
        assert bound.graph.node("clk") in clock.source_nodes
        assert not clock.is_virtual

    def test_virtual_clock(self, pipeline_netlist):
        bound = bind(pipeline_netlist, "create_clock -name v -period 4")
        assert bound.clocks["v"].is_virtual

    def test_generated_clock_period(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            create_generated_clock -name g -source [get_ports clk] \
                -divide_by 4 -master_clock c [get_pins rA/Q]
        """)
        assert bound.clocks["g"].period == 40
        assert bound.clocks["g"].is_generated


class TestCaseAndDisable:
    def test_case_binds_to_nodes(self, pipeline_netlist):
        bound = bind(pipeline_netlist, "set_case_analysis 1 [get_ports in1]")
        assert bound.case_values[bound.graph.node("in1")] == 1

    def test_disable_cell_arcs(self, pipeline_netlist):
        bound = bind(pipeline_netlist, "set_disable_timing [get_cells inv1]")
        graph = bound.graph
        src = graph.node("inv1/A")
        disabled = {a.index for a in graph.fanout[src]}
        assert disabled <= bound.disabled_arcs

    def test_disable_port(self, pipeline_netlist):
        bound = bind(pipeline_netlist, "set_disable_timing [get_ports in1]")
        src = bound.graph.node("in1")
        assert all(a.index in bound.disabled_arcs
                   for a in bound.graph.fanout[src])


class TestExceptions:
    def test_from_cell_maps_to_clock_pin(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -from [get_cells rA]
        """)
        exc = bound.exceptions[0]
        assert bound.graph.node("rA/CP") in exc.from_nodes

    def test_from_q_pin_maps_to_clock_pin(self, pipeline_netlist):
        bound = bind(pipeline_netlist, "set_false_path -from [get_pins rA/Q]")
        exc = bound.exceptions[0]
        assert bound.graph.node("rA/CP") in exc.from_nodes

    def test_to_cell_maps_to_data_pins(self, pipeline_netlist):
        bound = bind(pipeline_netlist, "set_false_path -to [get_cells rB]")
        exc = bound.exceptions[0]
        assert bound.graph.node("rB/D") in exc.to_nodes

    def test_clock_refs(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -from [get_clocks c] -to [get_clocks c]
        """)
        exc = bound.exceptions[0]
        assert exc.from_clocks == {"c"} and exc.to_clocks == {"c"}

    def test_activation_semantics(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -from [get_pins rA/CP]
        """)
        exc = bound.exceptions[0]
        sp = bound.graph.node("rA/CP")
        other = bound.graph.node("rB/CP")
        assert exc.activates(sp, "c")
        assert not exc.activates(other, "c")

    def test_completion_semantics(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -through [get_pins inv1/Z] -to [get_pins rB/D]
        """)
        exc = bound.exceptions[0]
        ep = bound.graph.node("rB/D")
        assert not exc.completes(0, ep, "c")   # through not crossed
        assert exc.completes(1, ep, "c")
        assert not exc.completes(1, bound.graph.node("rA/D"), "c")


class TestIoDelaysAndGroups:
    def test_input_delay_rows(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_input_delay 1.5 -clock c -max [get_ports in1]
        """)
        rows = bound.input_delays[bound.graph.node("in1")]
        assert rows[0].value == 1.5
        assert rows[0].applies_max and not rows[0].applies_min

    def test_unflagged_delay_applies_both(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_output_delay 1 -clock c [get_ports out1]
        """)
        row = bound.output_delays[bound.graph.node("out1")][0]
        assert row.applies_max and row.applies_min

    def test_exclusive_pairs(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name a -period 10 [get_ports clk]
            create_clock -name b -period 5 -add [get_ports clk]
            set_clock_groups -physically_exclusive -group {a} -group {b}
        """)
        assert not bound.clock_pair_allowed("a", "b")
        assert bound.clock_pair_allowed("a", "a")

    def test_uncertainty_lookup(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name a -period 10 [get_ports clk]
            set_clock_uncertainty 0.25 [get_clocks a]
        """)
        assert bound.uncertainty_for("a", "a") == 0.25
        assert bound.uncertainty_for("x", "y") == 0.0

    def test_clock_latency_min_max(self, pipeline_netlist):
        bound = bind(pipeline_netlist, """
            create_clock -name a -period 10 [get_ports clk]
            set_clock_latency -min 0.2 [get_clocks a]
            set_clock_latency -max 0.6 [get_clocks a]
        """)
        assert bound.clock_latency["a"] == (0.2, 0.6)

    def test_clock_stops(self, figure1):
        bound = bind(figure1, """
            create_clock -name cA -period 10 [get_ports clk1]
            set_clock_sense -stop_propagation -clocks [get_clocks cA] \
                [get_pins mux1/Z]
        """)
        node = bound.graph.node("mux1/Z")
        assert bound.stops_clock(node, "cA")
        assert not bound.stops_clock(node, "other")


class TestExtendedBindingMemos:
    """An extended binding never answers from its parent's memos."""

    BASE = """
        create_clock -name c -period 10 [get_ports clk]
        set_input_delay 1 -clock c [get_ports in1]
    """

    def views(self, bound):
        """Arc liveness, clock propagation and the rA -> rB cone."""
        graph = bound.graph
        extractor = RelationshipExtractor(bound)
        return (
            [bound.constants.arc_is_live(arc) for arc in graph.arcs],
            bound.clock_propagation().node_clocks,
            extractor.subgraph_between(graph.node("rA/CP"),
                                       graph.node("rB/D")),
        )

    def extend(self, netlist, line):
        mode = parse_mode(self.BASE, "m")
        bound = BoundMode(netlist, mode)
        before = self.views(bound)  # fills every memo of the parent
        mode.add(parse_mode(line, "x").constraints[0])
        extended = bound.extended(mode)
        assert extended is not None
        return before, self.views(extended), \
            self.views(BoundMode(netlist, mode))

    def test_disable_timing_that_cuts_a_path(self, pipeline_netlist):
        before, got, fresh = self.extend(
            pipeline_netlist, "set_disable_timing [get_cells inv1]")
        assert got == fresh
        assert got[0] != before[0]
        assert got[2] != before[2]

    def test_clock_sense_stop_propagation(self, pipeline_netlist):
        before, got, fresh = self.extend(
            pipeline_netlist,
            "set_clock_sense -stop_propagation -clocks [get_clocks c] "
            "[get_pins rB/CP]")
        assert got == fresh
        assert got[1] != before[1]
