"""Unit tests for the structural-Verilog reader/writer."""

import pytest

from repro.errors import VerilogSyntaxError
from repro.netlist import figure1_circuit, read_verilog, validate, write_verilog

SIMPLE = """
// a tiny pipeline
module top (clk, in1, out1);
  input clk, in1;
  output out1;
  wire n1, n2;
  DFF rA (.D(in1), .CP(clk), .Q(n1));
  INV u1 (.A(n1), .Z(n2));
  DFF rB (.D(n2), .CP(clk), .Q(out1));
endmodule
"""


class TestReader:
    def test_basic_parse(self):
        netlist = read_verilog(SIMPLE)
        assert netlist.name == "top"
        assert netlist.cell_count == 3
        assert validate(netlist).ok

    def test_port_directions(self):
        netlist = read_verilog(SIMPLE)
        assert netlist.port("clk").is_input
        assert netlist.port("out1").is_output

    def test_connectivity(self):
        netlist = read_verilog(SIMPLE)
        assert netlist.find_pin("u1/A").net.driver.full_name == "rA/Q"
        assert netlist.find_pin("rB/Q").net.loads[0].full_name == "out1"

    def test_comments_and_continuations(self):
        text = SIMPLE.replace("input clk, in1;",
                              "input clk, /* block */ in1; // line")
        netlist = read_verilog(text)
        assert netlist.port("in1").is_input

    def test_unconnected_pin_allowed(self):
        text = """
        module t (a, z);
          input a;
          output z;
          DFFQN r1 (.D(a), .CP(a), .Q(z), .QN());
        endmodule
        """
        netlist = read_verilog(text)
        assert netlist.find_pin("r1/QN").net is None

    def test_escaped_identifier(self):
        text = """
        module t (a, z);
          input a;
          output z;
          INV \\u$1 (.A(a), .Z(z));
        endmodule
        """
        netlist = read_verilog(text)
        assert netlist.has_instance("u$1")


class TestReaderErrors:
    @pytest.mark.parametrize("bad, fragment", [
        ("module t (a; endmodule", "port list"),
        ("module t (a); input a endmodule", "expected"),
        ("module t (a); inout a; endmodule", "inout"),
        ("module t (a); input a;", "endmodule"),
        ("module t (a); input a; INV u1 (n1); endmodule", "named port"),
    ])
    def test_rejects(self, bad, fragment):
        with pytest.raises(VerilogSyntaxError) as err:
            read_verilog(bad)
        assert fragment.lower() in str(err.value).lower()

    def test_undeclared_header_port(self):
        with pytest.raises(VerilogSyntaxError):
            read_verilog("module t (a, ghost); input a; endmodule")


class TestRoundTrip:
    def test_simple_roundtrip(self):
        first = read_verilog(SIMPLE)
        text = write_verilog(first)
        second = read_verilog(text)
        assert second.cell_count == first.cell_count
        assert {p.name for p in second.ports} == {p.name for p in first.ports}
        assert second.find_pin("u1/A").net.driver.full_name == "rA/Q"

    def test_figure1_roundtrip(self):
        original = figure1_circuit()
        text = write_verilog(original)
        parsed = read_verilog(text)
        assert parsed.cell_count == original.cell_count
        assert validate(parsed).ok
        # Connectivity is preserved pin-for-pin.
        for inst in original.instances:
            for pin in inst.pins.values():
                if pin.net is None or pin.net.driver is None:
                    continue
                mirrored = parsed.find_pin(pin.full_name)
                assert mirrored.net.driver.full_name \
                    == pin.net.driver.full_name


def _structure(netlist):
    """Ports, instances and nets in order; each net with its driver and
    its loads in order; each pin with its net."""
    def name(obj):
        return None if obj is None else obj.full_name

    return ([(p.name, p.direction) for p in netlist.ports],
            [(i.name, i.cell.name) for i in netlist.instances],
            [(n.name, name(n.driver), [name(l) for l in n.loads])
             for n in netlist.nets],
            [(p.full_name, p.net and p.net.name) for p in netlist.all_pins()])


def _read_back(netlist):
    """The structure ``read_verilog(write_verilog(netlist))`` must have.

    The writer emits a port's net under the port's name, and the reader
    attaches each port to the net of its own name.  Nets are created at
    their first reference, instance by instance and pin by pin, then by
    the port declarations (inputs, then outputs); loads join their net in
    the same order.
    """
    emitted = {}
    for port in netlist.ports:
        if port.net is not None:
            emitted.setdefault(port.net.name, port.name)
    nets = {}
    pins = []
    for inst in netlist.instances:
        for pin in inst.pins.values():
            if pin.net is None:
                pins.append((pin.full_name, None))
                continue
            net_name = emitted.get(pin.net.name, pin.net.name)
            entry = nets.setdefault(net_name, [None, []])
            if pin.is_output:
                entry[0] = pin.full_name
            else:
                entry[1].append(pin.full_name)
            pins.append((pin.full_name, net_name))
    for port in netlist.input_ports() + netlist.output_ports():
        entry = nets.setdefault(port.name, [None, []])
        if port.is_input:
            entry[0] = port.name
        else:
            entry[1].append(port.name)
    return ([(p.name, p.direction) for p in netlist.ports],
            [(i.name, i.cell.name) for i in netlist.instances],
            [(name, driver, loads) for name, (driver, loads) in nets.items()],
            pins)


@pytest.mark.parametrize("design", [
    "A", "B", "C", "D", "E", "F",
    "A-held-out", "B-held-out", "C-held-out", "D-held-out", "E-held-out",
    "F-held-out",
    "scan-pairs", "genclock-deep", "exception-stack", "lowpower-retention"])
def test_design_round_trip(design_netlists, design):
    """Port, instance, net, driver and load order survive a round trip,
    and a netlist read back is a fixed point of the next one."""
    source = design_netlists[design]
    netlist = read_verilog(write_verilog(source))
    assert _structure(netlist) == _read_back(source)
    assert _structure(read_verilog(write_verilog(netlist))) \
        == _structure(netlist)
    assert netlist.connectable_count == len(netlist.ports) + sum(
        len(inst.pins) for inst in netlist.instances)
