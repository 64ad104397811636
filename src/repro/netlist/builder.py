"""Convenience API for building netlists in code.

:class:`NetlistBuilder` wraps :class:`~repro.netlist.netlist.Netlist` with a
terse gate-per-call style used by tests, examples and the workload
generator::

    b = NetlistBuilder("top")
    clk = b.input("clk1")
    rA = b.dff("rA", clk="clk1")
    z = b.inv("inv1", rA.q)
    b.dff("rX", d=z, clk="clk1")
    netlist = b.build()

Each gate helper creates the instance, an output net named after the
driving pin, and connects the given input sources (names of ports or
``inst/PIN`` pins, or :class:`GateRef` handles).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.errors import ConnectivityError
from repro.netlist.cells import CellLibrary, PinDirection
from repro.netlist.netlist import Instance, Netlist

Source = Union[str, "GateRef"]


class GateRef:
    """Handle to a created gate; exposes its output pin names."""

    def __init__(self, instance: Instance, output_pin: str):
        self.instance = instance
        self.output_pin = output_pin

    @property
    def name(self) -> str:
        return self.instance.name

    @property
    def out(self) -> str:
        """Full name of the primary output pin (e.g. ``u1/Z``)."""
        return f"{self.instance.name}/{self.output_pin}"

    # Sequential-cell sugar.
    @property
    def q(self) -> str:
        return f"{self.instance.name}/Q"

    @property
    def qn(self) -> str:
        return f"{self.instance.name}/QN"

    def pin(self, pin_name: str) -> str:
        return f"{self.instance.name}/{pin_name}"

    def __str__(self) -> str:
        return self.out


class NetlistBuilder:
    """Incremental netlist constructor with one method per gate family."""

    def __init__(self, name: str, library: Optional[CellLibrary] = None):
        self.netlist = Netlist(name, library)
        self._net_counter = 0

    # ------------------------------------------------------------------
    # ports
    # ------------------------------------------------------------------
    def input(self, name: str) -> str:
        port = self.netlist.add_port(name, PinDirection.INPUT)
        net = self.netlist.get_or_create_net(f"n_{name}")
        net.connect_driver(port)
        return name

    def output(self, name: str, source: Optional[Source] = None) -> str:
        self.netlist.add_port(name, PinDirection.OUTPUT)
        if source is not None:
            self._connect_source_to(source, name)
        return name

    def inputs(self, *names: str) -> List[str]:
        return [self.input(n) for n in names]

    # ------------------------------------------------------------------
    # generic gate creation
    # ------------------------------------------------------------------
    def gate(self, cell_type: str, name: str, output_pin: str = "Z",
             **pin_sources: Source) -> GateRef:
        """Create an instance and wire named input pins to sources."""
        inst = self.netlist.add_instance(name, cell_type)
        # Create the output net(s).
        for out in inst.output_pins():
            net = self.netlist.get_or_create_net(self._fresh_net(f"{name}_{out.name}"))
            net.connect_driver(out)
        for pin_name, source in pin_sources.items():
            if source is None:
                continue
            self._connect_source_to(source, f"{name}/{pin_name}")
        primary = output_pin if inst.cell.has_pin(output_pin) else (
            inst.output_pins()[0].name if inst.output_pins() else output_pin
        )
        return GateRef(inst, primary)

    # ------------------------------------------------------------------
    # combinational sugar
    # ------------------------------------------------------------------
    def inv(self, name: str, a: Source) -> GateRef:
        return self.gate("INV", name, A=a)

    def buf(self, name: str, a: Source) -> GateRef:
        return self.gate("BUF", name, A=a)

    def and2(self, name: str, a: Source, b: Source) -> GateRef:
        return self.gate("AND2", name, A=a, B=b)

    def or2(self, name: str, a: Source, b: Source) -> GateRef:
        return self.gate("OR2", name, A=a, B=b)

    def nand2(self, name: str, a: Source, b: Source) -> GateRef:
        return self.gate("NAND2", name, A=a, B=b)

    def nor2(self, name: str, a: Source, b: Source) -> GateRef:
        return self.gate("NOR2", name, A=a, B=b)

    def xor2(self, name: str, a: Source, b: Source) -> GateRef:
        return self.gate("XOR2", name, A=a, B=b)

    def mux2(self, name: str, a: Source, b: Source, s: Source) -> GateRef:
        return self.gate("MUX2", name, A=a, B=b, S=s)

    def tie0(self, name: str) -> GateRef:
        return self.gate("TIE0", name)

    def tie1(self, name: str) -> GateRef:
        return self.gate("TIE1", name)

    # ------------------------------------------------------------------
    # sequential sugar
    # ------------------------------------------------------------------
    def dff(self, name: str, d: Optional[Source] = None,
            clk: Optional[Source] = None) -> GateRef:
        ref = self.gate("DFF", name, output_pin="Q", D=d, CP=clk)
        return ref

    def dffn(self, name: str, d: Optional[Source] = None,
             clk: Optional[Source] = None) -> GateRef:
        """Falling-edge flip-flop."""
        return self.gate("DFFN", name, output_pin="Q", D=d, CPN=clk)

    def sdff(self, name: str, d: Optional[Source] = None,
             si: Optional[Source] = None, se: Optional[Source] = None,
             clk: Optional[Source] = None) -> GateRef:
        return self.gate("SDFF", name, output_pin="Q", D=d, SI=si, SE=se, CP=clk)

    def latch(self, name: str, d: Optional[Source] = None,
              g: Optional[Source] = None) -> GateRef:
        return self.gate("LATCH", name, output_pin="Q", D=d, G=g)

    def icg(self, name: str, clk: Source, en: Source) -> GateRef:
        return self.gate("ICG", name, output_pin="ECK", CP=clk, EN=en)

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def connect(self, source: Source, sink: str) -> None:
        """Wire an existing source (port / pin / GateRef) to a sink pin."""
        self._connect_source_to(source, sink)

    def _connect_source_to(self, source: Source, sink_name: str) -> None:
        src_name = source.out if isinstance(source, GateRef) else source
        src_obj = self.netlist.find_connectable(src_name)
        if src_obj is None:
            raise ConnectivityError(f"unknown source {src_name!r}")
        net = src_obj.net
        if net is None:
            net = self.netlist.get_or_create_net(self._fresh_net(src_name))
            net.connect_driver(src_obj)
        sink_obj = self.netlist.find_connectable(sink_name)
        if sink_obj is None:
            raise ConnectivityError(f"unknown sink {sink_name!r}")
        net.connect_load(sink_obj)

    def _fresh_net(self, hint: str) -> str:
        base = f"n_{hint.replace('/', '_')}"
        name = base
        while self.netlist.has_net(name):
            self._net_counter += 1
            name = f"{base}_{self._net_counter}"
        return name

    def build(self) -> Netlist:
        return self.netlist


def figure1_circuit() -> Netlist:
    """The example circuit of the paper's Figure 1.

    Six registers ``rA, rB, rC`` (launching) and ``rX, rY, rZ`` (capturing),
    all clocked from port ``clk1``; data paths:

    * ``rA/Q -> inv1/Z -> rX/D``
    * ``rA/Q -> inv1/Z -> and1/Z -> inv2/Z -> rY/D``
    * ``rB/Q -> and1/Z -> inv2/Z -> rY/D``
    * ``rC/Q -> and2/Z -> rZ/D`` and ``rC/Q -> inv3/Z -> and2/Z -> rZ/D``
      (a reconvergence, needed by the pass-3 example)

    A mux ``mux1`` with select ``sel1``/``sel2``-controlled logic sits in
    the clock network between ``clk1``/``clk2`` and the capture registers,
    mirroring the clock-refinement example (Constraint Set 3).
    """
    b = NetlistBuilder("figure1")
    b.inputs("clk1", "clk2", "sel1", "sel2", "in1")
    # Select logic: sel = sel1 OR sel2 so conflicting case values in the two
    # modes (0/1 vs 1/0) both force the select to a constant 1.
    selg = b.or2("selg", "sel1", "sel2")
    # Clock mux: A input clk1, B input clk2, select selg.
    mux1 = b.mux2("mux1", "clk1", "clk2", selg.out)

    # Launch registers clocked directly from clk1.
    rA = b.dff("rA", d="in1", clk="clk1")
    rB = b.dff("rB", d="in1", clk="clk1")
    rC = b.dff("rC", d="in1", clk="clk1")

    # Data network.
    inv1 = b.inv("inv1", rA.q)
    and1 = b.and2("and1", inv1.out, rB.q)
    inv2 = b.inv("inv2", and1.out)
    inv3 = b.inv("inv3", rC.q)
    and2 = b.and2("and2", rC.q, inv3.out)

    # Capture registers clocked through the mux (capture side of the clock
    # network exercises clock refinement).
    b.dff("rX", d=inv1.out, clk=mux1.out)
    b.dff("rY", d=inv2.out, clk=mux1.out)
    rZ = b.dff("rZ", d=and2.out, clk=mux1.out)

    b.output("out1", rZ.q)
    return b.build()
