"""Unit tests for NetlistBuilder and the Figure-1 reference circuit."""

import pytest

from repro.errors import ConnectivityError
from repro.netlist import NetlistBuilder, figure1_circuit, validate


class TestBuilderBasics:
    def test_gate_chain(self):
        b = NetlistBuilder("t")
        b.input("a")
        inv = b.inv("u1", "a")
        buf = b.buf("u2", inv.out)
        b.output("z", buf.out)
        netlist = b.build()
        assert netlist.cell_count == 2
        assert validate(netlist).ok

    def test_gateref_sugar(self):
        b = NetlistBuilder("t")
        b.inputs("clk", "d")
        reg = b.dff("r1", d="d", clk="clk")
        assert reg.q == "r1/Q"
        assert reg.pin("CP") == "r1/CP"
        assert str(reg) == "r1/Q"
        assert reg.name == "r1"

    def test_gateref_as_source(self):
        b = NetlistBuilder("t")
        b.input("a")
        inv = b.inv("u1", "a")
        and2 = b.and2("u2", inv, "a")  # GateRef accepted directly
        netlist = b.build()
        assert netlist.find_pin("u2/A").net.driver.full_name == "u1/Z"

    def test_colliding_net_hint_gets_the_next_suffix(self):
        b = NetlistBuilder("t")
        b.inputs("u1_Z", "u2_Z")  # nets n_u1_Z and n_u2_Z
        b.inv("u1", "u1_Z")  # hint n_u1_Z is taken
        b.inv("u2", "u2_Z")  # so is n_u2_Z; the counter is shared
        b.inv("u3", "u1_Z")  # n_u3_Z is free
        netlist = b.build()
        assert [netlist.find_pin(f"u{i}/Z").net.name for i in (1, 2, 3)] \
            == ["n_u1_Z_1", "n_u2_Z_2", "n_u3_Z"]
        assert netlist.has_net("n_u1_Z") and not netlist.has_net("n_u4_Z")

    def test_unknown_source_raises(self):
        b = NetlistBuilder("t")
        with pytest.raises(ConnectivityError):
            b.inv("u1", "missing_port")

    def test_explicit_connect(self):
        b = NetlistBuilder("t")
        b.inputs("clk", "d")
        reg = b.gate("DFF", "r1", output_pin="Q")
        b.connect("d", "r1/D")
        b.connect("clk", "r1/CP")
        assert validate(b.build()).ok

    def test_mux_and_icg(self):
        b = NetlistBuilder("t")
        b.inputs("c1", "c2", "s", "en", "d")
        mux = b.mux2("m1", "c1", "c2", "s")
        icg = b.icg("g1", mux.out, "en")
        b.dff("r1", d="d", clk=icg.out)
        netlist = b.build()
        assert netlist.instance("g1").cell.is_clock_gate
        assert validate(netlist).ok

    def test_tie_cells(self):
        b = NetlistBuilder("t")
        t0 = b.tie0("t0")
        b.inputs("clk")
        b.dff("r1", d=t0.out, clk="clk")
        assert validate(b.build()).ok

    def test_sdff_and_latch(self):
        b = NetlistBuilder("t")
        b.inputs("clk", "d", "si", "se", "g")
        b.sdff("s1", d="d", si="si", se="se", clk="clk")
        lat = b.latch("l1", d="d", g="g")
        b.output("q", lat.q)
        netlist = b.build()
        assert netlist.instance("l1").cell.is_latch
        assert validate(netlist).ok


class TestFigure1Circuit:
    def test_structure(self):
        netlist = figure1_circuit()
        # The six registers of the paper's example.
        for reg in ("rA", "rB", "rC", "rX", "rY", "rZ"):
            assert netlist.instance(reg).is_sequential
        # Paths of the paper: rA/Q -> inv1, inv1 -> and1, rB/Q -> and1.
        assert netlist.find_pin("inv1/A").net.driver.full_name == "rA/Q"
        and1_drivers = {netlist.find_pin(f"and1/{p}").net.driver.full_name
                        for p in ("A", "B")}
        assert and1_drivers == {"inv1/Z", "rB/Q"}
        # Reconvergence for the pass-3 example: rC/Q feeds both and2/A
        # and inv3/A.
        rc_loads = {l.full_name
                    for l in netlist.instance("rC").pin("Q").net.loads}
        assert {"and2/A", "inv3/A"} <= rc_loads

    def test_validates_cleanly(self):
        report = validate(figure1_circuit())
        assert report.ok, report.summary()

    def test_capture_registers_clocked_through_mux(self):
        netlist = figure1_circuit()
        for reg in ("rX", "rY", "rZ"):
            driver = netlist.instance(reg).pin("CP").net.driver
            assert driver.full_name == "mux1/Z"
