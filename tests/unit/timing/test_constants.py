"""Unit tests for constant propagation and arc liveness."""

from repro.netlist import LOGIC_X, NetlistBuilder
from repro.netlist.cells import (ArcSpec, CellType, PinDirection, PinSpec,
                                 Unateness, generic_library)
from repro.netlist.netlist import Netlist
from repro.timing import ConstantAnalysis, build_graph


def analysis(netlist, cases=None, disabled=None):
    graph = build_graph(netlist)
    node_cases = {graph.node(name): value
                  for name, value in (cases or {}).items()}
    return graph, ConstantAnalysis(graph, node_cases, disabled)


class TestPropagation:
    def test_default_everything_unknown(self, pipeline_netlist):
        graph, consts = analysis(pipeline_netlist)
        assert consts.value(graph.node("in1")) == LOGIC_X
        assert consts.value(graph.node("inv1/Z")) == LOGIC_X

    def test_case_forces_value(self, pipeline_netlist):
        graph, consts = analysis(pipeline_netlist, {"in1": 1})
        assert consts.value(graph.node("in1")) == 1
        assert consts.value(graph.node("rA/D")) == 1
        # FF output still toggles (edge-triggered, value unknown).
        assert consts.value(graph.node("rA/Q")) == LOGIC_X

    def test_case_on_ff_output(self, pipeline_netlist):
        graph, consts = analysis(pipeline_netlist, {"rA/Q": 0})
        assert consts.value(graph.node("rA/Q")) == 0
        assert consts.value(graph.node("inv1/Z")) == 1
        assert consts.value(graph.node("rB/D")) == 1

    def test_tie_cells_propagate(self):
        b = NetlistBuilder("t")
        b.input("a")
        t1 = b.tie1("t1")
        g = b.and2("g", "a", t1.out)
        b.output("z", g.out)
        graph, consts = analysis(b.build())
        assert consts.value(graph.node("t1/Z")) == 1
        assert consts.value(graph.node("g/Z")) == LOGIC_X  # follows a

    def test_controlling_constant(self):
        b = NetlistBuilder("t")
        b.inputs("a", "b")
        g = b.and2("g", "a", "b")
        b.output("z", g.out)
        graph, consts = analysis(b.build(), {"a": 0})
        assert consts.value(graph.node("g/Z")) == 0

    def test_constant_nodes_map(self, pipeline_netlist):
        graph, consts = analysis(pipeline_netlist, {"in1": 1})
        constants = consts.constant_nodes()
        assert constants[graph.node("in1")] == 1


class TestArcLiveness:
    def find_arc(self, graph, src, dst):
        s = graph.node(src)
        for arc in graph.fanout[s]:
            if graph.name(arc.dst) == dst:
                return arc
        raise AssertionError(f"no arc {src} -> {dst}")

    def test_live_by_default(self, pipeline_netlist):
        graph, consts = analysis(pipeline_netlist)
        arc = self.find_arc(graph, "inv1/A", "inv1/Z")
        assert consts.arc_is_live(arc)

    def test_constant_source_kills_arc(self, pipeline_netlist):
        graph, consts = analysis(pipeline_netlist, {"rA/Q": 0})
        arc = self.find_arc(graph, "rA/Q", "inv1/A")
        assert not consts.arc_is_live(arc)

    def test_constant_dest_kills_arc(self):
        b = NetlistBuilder("t")
        b.inputs("a", "b")
        g = b.and2("g", "a", "b")
        b.output("z", g.out)
        graph, consts = analysis(b.build(), {"a": 0})
        # b -> g/Z is dead: the output is stuck at 0.
        arc = self.find_arc(graph, "g/B", "g/Z")
        assert not consts.arc_is_live(arc)

    def test_mux_select_blocks_unselected_input(self):
        b = NetlistBuilder("t")
        b.inputs("a", "b", "s")
        m = b.mux2("m", "a", "b", "s")
        b.output("z", m.out)
        graph, consts = analysis(b.build(), {"s": 1})
        assert not consts.arc_is_live(self.find_arc(graph, "m/A", "m/Z"))
        assert consts.arc_is_live(self.find_arc(graph, "m/B", "m/Z"))

    def test_mux_unknown_select_both_live(self):
        b = NetlistBuilder("t")
        b.inputs("a", "b", "s")
        m = b.mux2("m", "a", "b", "s")
        b.output("z", m.out)
        graph, consts = analysis(b.build())
        assert consts.arc_is_live(self.find_arc(graph, "m/A", "m/Z"))
        assert consts.arc_is_live(self.find_arc(graph, "m/B", "m/Z"))

    def test_xor_never_blocked_by_side_input(self):
        b = NetlistBuilder("t")
        b.inputs("a", "b")
        g = b.xor2("g", "a", "b")
        b.output("z", g.out)
        graph, consts = analysis(b.build(), {"b": 1})
        assert consts.arc_is_live(self.find_arc(graph, "g/A", "g/Z"))

    def test_disabled_arc_set(self, pipeline_netlist):
        graph, _ = analysis(pipeline_netlist)
        arc = self.find_arc(graph, "inv1/A", "inv1/Z")
        _, consts = analysis(pipeline_netlist, disabled={arc.index})
        assert not consts.arc_is_live(arc)

    def test_launch_arc_live_when_clock_toggles(self, pipeline_netlist):
        graph, consts = analysis(pipeline_netlist)
        arc = self.find_arc(graph, "rA/CP", "rA/Q")
        assert consts.arc_is_live(arc)

    def test_launch_arc_dead_when_output_cased(self, pipeline_netlist):
        graph, consts = analysis(pipeline_netlist, {"rA/Q": 0})
        arc = self.find_arc(graph, "rA/CP", "rA/Q")
        assert not consts.arc_is_live(arc)

    def test_icg_disabled_stops_clock_arc(self):
        b = NetlistBuilder("t")
        b.inputs("clk", "en", "d")
        icg = b.icg("g1", "clk", "en")
        b.dff("r1", d="d", clk=icg.out)
        graph, consts = analysis(b.build(), {"en": 0})
        assert not consts.arc_is_live(self.find_arc(graph, "g1/CP", "g1/ECK"))

    def test_redundant_input_is_dead_with_every_side_unknown(self):
        # Z = A whatever B is: B -> Z never toggles Z, even with A unknown.
        library = generic_library()
        library.add(CellType(
            name="PASSA",
            pins=[PinSpec("A", PinDirection.INPUT),
                  PinSpec("B", PinDirection.INPUT),
                  PinSpec("Z", PinDirection.OUTPUT)],
            arcs=[ArcSpec("A", "Z", Unateness.POSITIVE),
                  ArcSpec("B", "Z", Unateness.POSITIVE)],
            functions={"Z": lambda i: i.get("A", LOGIC_X)}))
        netlist = Netlist("t", library)
        for name in ("a", "b"):
            netlist.add_port(name, PinDirection.INPUT)
        netlist.add_port("z", PinDirection.OUTPUT)
        netlist.add_instance("p", "PASSA")
        netlist.connect("na", "a", "p/A")
        netlist.connect("nb", "b", "p/B")
        netlist.connect("nz", "p/Z", "z")
        graph, consts = analysis(netlist)
        assert consts.arc_is_live(self.find_arc(graph, "p/A", "p/Z"))
        assert not consts.arc_is_live(self.find_arc(graph, "p/B", "p/Z"))
