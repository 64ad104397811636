"""Shared hypothesis strategies: random small circuits and modes.

The circuits are small DAGs (a few registers, a few gates, up to two clock
ports behind an optional clock mux) — big enough to contain reconvergence
and clock-network choice, small enough for full path enumeration to serve
as the ground-truth oracle.
"""

from __future__ import annotations

import random
from typing import List

from hypothesis import strategies as st

from repro.netlist import NetlistBuilder, Netlist
from repro.sdc import Mode, parse_mode

GATES = ("INV", "BUF", "AND2", "OR2", "XOR2", "NAND2")


def build_random_circuit(seed: int, n_gates: int, n_regs: int,
                         use_clock_mux: bool) -> Netlist:
    rng = random.Random(seed)
    b = NetlistBuilder(f"rand{seed}")
    b.inputs("clk1", "clk2", "sel", "in1", "in2")
    if use_clock_mux:
        clock_net = b.mux2("ckmux", "clk1", "clk2", "sel").out
    else:
        clock_net = "clk1"

    launch_regs = []
    for i in range(max(1, n_regs // 2)):
        src = rng.choice(["in1", "in2"])
        launch_regs.append(b.dff(f"rl{i}", d=src, clk=clock_net))

    pool: List[str] = [r.q for r in launch_regs] + ["in1", "in2"]
    for i in range(n_gates):
        gate_type = rng.choice(GATES)
        gname = f"g{i}"
        if gate_type in ("INV", "BUF"):
            ref = b.gate(gate_type, gname, A=rng.choice(pool))
        else:
            ref = b.gate(gate_type, gname, A=rng.choice(pool),
                         B=rng.choice(pool))
        pool.append(ref.out)

    capture_count = max(1, n_regs - len(launch_regs))
    for i in range(capture_count):
        b.dff(f"rc{i}", d=rng.choice(pool[len(launch_regs):] or pool),
              clk=clock_net)
    b.output("out1", pool[-1])
    return b.build()


def build_random_mode(netlist: Netlist, seed: int, mode_name: str,
                      period: float = 10.0, with_exceptions: bool = True,
                      clock_exceptions: bool = False) -> Mode:
    """A random mode on ``netlist``.

    ``clock_exceptions`` also draws exceptions selected by clock
    (``-from [get_clocks CK]``, ``-to [get_clocks CK2]``): they hold on
    every path a clock launches or captures, so once active they never
    change on the way to an endpoint.  A ``-rise_from``/``-fall_from``
    qualifier makes an input port's rising and falling launches carry
    different exceptions.  The draws come after all others, so the same
    seed gives the same mode up to them.
    """
    rng = random.Random(seed)
    lines = [f"create_clock -name CK -period {period:g} [get_ports clk1]"]
    has_ck2 = netlist.has_port("clk2") and rng.random() < 0.5
    if has_ck2:
        lines.append(
            f"create_clock -name CK2 -period {period * 2:g} "
            f"[get_ports clk2]")
    if rng.random() < 0.6:
        lines.append(f"set_case_analysis {rng.randint(0, 1)} "
                     f"[get_ports sel]")
    lines.append("set_input_delay 1 -clock CK [get_ports in1]")
    if rng.random() < 0.5:
        lines.append("set_input_delay 1.5 -clock CK [get_ports in2]")
    lines.append("set_output_delay 1 -clock CK [get_ports out1]")

    if with_exceptions:
        gate_pins = [i.name + "/Z" for i in netlist.instances
                     if not i.is_sequential and i.cell.has_pin("Z")]
        reg_names = [i.name for i in netlist.sequential_instances()]
        for _ in range(rng.randint(0, 3)):
            choice = rng.random()
            if choice < 0.35 and gate_pins:
                lines.append(f"set_false_path -through "
                             f"[get_pins {rng.choice(gate_pins)}]")
            elif choice < 0.6 and reg_names:
                lines.append(f"set_false_path -from "
                             f"[get_cells {rng.choice(reg_names)}]")
            elif choice < 0.8 and reg_names:
                lines.append(f"set_multicycle_path {rng.randint(2, 3)} "
                             f"-to [get_cells {rng.choice(reg_names)}]")
            elif reg_names:
                edge = rng.choice(["rise", "fall"])
                lines.append(f"set_false_path -{edge}_to "
                             f"[get_cells {rng.choice(reg_names)}]")
    if clock_exceptions:
        if has_ck2 and rng.random() < 0.5:
            lines.append("set_false_path -from [get_clocks CK] "
                         "-to [get_clocks CK2]")
        if rng.random() < 0.7:
            edge = rng.choice(["", "rise_", "fall_"])
            lines.append(f"set_multicycle_path {rng.randint(2, 3)} "
                         f"-{edge}from [get_clocks CK]")
    return parse_mode("\n".join(lines), mode_name)


circuit_params = st.tuples(
    st.integers(0, 10_000),     # seed
    st.integers(2, 8),          # gates
    st.integers(2, 4),          # regs
    st.booleans(),              # clock mux
)
