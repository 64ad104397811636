"""Unit tests for clock propagation and launch-clock propagation."""

from repro.netlist import NetlistBuilder
from repro.sdc import parse_mode
from repro.timing import BoundMode, ClockPropagation, propagate_launch_clocks


def bound_for(netlist, sdc, name="m"):
    return BoundMode(netlist, parse_mode(sdc, name))


class TestClockNetwork:
    def test_simple_propagation(self, pipeline_netlist):
        bound = bound_for(pipeline_netlist,
                          "create_clock -name c -period 10 [get_ports clk]")
        prop = ClockPropagation(bound)
        graph = bound.graph
        assert prop.clocks_at(graph.node("clk")) == {"c"}
        assert prop.clocks_at(graph.node("rA/CP")) == {"c"}
        assert prop.register_clocks == {"rA": {"c"}, "rB": {"c"}}

    def test_clock_does_not_enter_data_network(self, pipeline_netlist):
        bound = bound_for(pipeline_netlist,
                          "create_clock -name c -period 10 [get_ports clk]")
        prop = ClockPropagation(bound)
        assert prop.clocks_at(bound.graph.node("rA/Q")) == set()
        assert prop.clocks_at(bound.graph.node("inv1/Z")) == set()

    def test_mux_passes_both_when_select_unknown(self, figure1):
        bound = bound_for(figure1, """
            create_clock -name cA -period 10 [get_ports clk1]
            create_clock -name cB -period 20 [get_ports clk2]
        """)
        prop = ClockPropagation(bound)
        assert prop.clocks_at(bound.graph.node("mux1/Z")) == {"cA", "cB"}
        assert prop.clocks_at_register("rX") == {"cA", "cB"}

    def test_case_analysis_selects_clock(self, figure1):
        bound = bound_for(figure1, """
            create_clock -name cA -period 10 [get_ports clk1]
            create_clock -name cB -period 20 [get_ports clk2]
            set_case_analysis 0 sel1
            set_case_analysis 1 sel2
        """)
        prop = ClockPropagation(bound)
        # selg = sel1 | sel2 = 1 -> mux passes B (clk2 / cB) only.
        assert prop.clocks_at(bound.graph.node("mux1/Z")) == {"cB"}

    def test_clock_sense_stop(self, figure1):
        bound = bound_for(figure1, """
            create_clock -name cA -period 10 [get_ports clk1]
            create_clock -name cB -period 20 [get_ports clk2]
            set_clock_sense -stop_propagation -clocks [get_clocks cA] [get_pins mux1/Z]
        """)
        prop = ClockPropagation(bound)
        assert prop.clocks_at(bound.graph.node("mux1/Z")) == {"cB"}
        assert prop.clocks_at(bound.graph.node("mux1/A")) == {"cA"}

    def test_icg_enable_gates_clock(self):
        b = NetlistBuilder("t")
        b.inputs("clk", "en", "d")
        icg = b.icg("g1", "clk", "en")
        b.dff("r1", d="d", clk=icg.out)
        netlist = b.build()
        enabled = bound_for(netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_case_analysis 1 en
        """)
        assert ClockPropagation(enabled).clocks_at_register("r1") == {"c"}
        disabled = bound_for(netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_case_analysis 0 en
        """)
        assert ClockPropagation(disabled).clocks_at_register("r1") == set()

    def test_generated_clock_takes_over(self):
        b = NetlistBuilder("t")
        b.inputs("clk", "d")
        r1 = b.dff("div", d="d", clk="clk")
        b.dff("r2", d=r1.q, clk=r1.q)
        netlist = b.build()
        bound = bound_for(netlist, """
            create_clock -name c -period 10 [get_ports clk]
            create_generated_clock -name cdiv -source [get_ports clk] \
                -divide_by 2 -master_clock c [get_pins div/Q]
        """)
        prop = ClockPropagation(bound)
        assert prop.clocks_at_register("r2") == {"cdiv"}
        assert bound.clocks["cdiv"].period == 20.0

    def test_virtual_clock_propagates_nowhere(self, pipeline_netlist):
        bound = bound_for(pipeline_netlist,
                          "create_clock -name virt -period 10")
        prop = ClockPropagation(bound)
        assert prop.node_clocks == {}

    def test_clock_network_nodes_topological(self, figure1):
        bound = bound_for(figure1, """
            create_clock -name cA -period 10 [get_ports clk1]
        """)
        prop = ClockPropagation(bound)
        nodes = prop.clock_network_nodes()
        ranks = [bound.graph.topo_rank[n] for n in nodes]
        assert ranks == sorted(ranks)


class TestLaunchClocks:
    def test_launch_through_data_network(self, pipeline_netlist):
        bound = bound_for(pipeline_netlist,
                          "create_clock -name c -period 10 [get_ports clk]")
        launches = propagate_launch_clocks(bound)
        graph = bound.graph
        assert launches[graph.node("rA/Q")] == {"c"}
        assert launches[graph.node("inv1/Z")] == {"c"}
        assert launches[graph.node("rB/D")] == {"c"}
        # The clock network itself is not a launch target.
        assert graph.node("rA/CP") not in launches

    def test_case_kills_launch(self, pipeline_netlist):
        bound = bound_for(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_case_analysis 0 rA/Q
        """)
        launches = propagate_launch_clocks(bound)
        assert bound.graph.node("inv1/Z") not in launches

    def test_input_delay_seeds_port_clock(self, pipeline_netlist):
        bound = bound_for(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            create_clock -name virt -period 10
            set_input_delay 1.0 -clock virt [get_ports in1]
        """)
        launches = propagate_launch_clocks(bound)
        graph = bound.graph
        assert launches[graph.node("in1")] == {"virt"}
        assert launches[graph.node("rA/D")] == {"virt"}
