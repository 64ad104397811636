"""Shared fixtures: the paper's Figure-1 circuit and its constraint sets."""

from __future__ import annotations

import pytest

from repro.netlist import NetlistBuilder, figure1_circuit
from repro.sdc import parse_mode


@pytest.fixture
def figure1():
    return figure1_circuit()


# --- Constraint Set 1 (Section 2, Table 1) ---
CS1 = """
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -through [get_pins inv1/Z]
set_false_path -through [and1/Z]
"""


# --- Constraint Set 6 (Section 3.2, Tables 2-4) ---
CS6_MODE_A = """
create_clock -p 10 -name clkA [get_port clk1]
set_false_path -to rX/D
set_false_path -to rY/D
set_false_path -through inv3/Z
"""

CS6_MODE_B = """
create_clock -p 10 -name clkA [get_port clk1]
set_false_path -from rA/CP
set_false_path -to rZ/D
"""


@pytest.fixture
def cs1_mode():
    return parse_mode(CS1, "cs1")


@pytest.fixture
def cs6_modes():
    return (parse_mode(CS6_MODE_A, "A"), parse_mode(CS6_MODE_B, "B"))


@pytest.fixture
def pipeline_netlist():
    """A tiny 2-stage pipeline used by many unit tests.

    in1 -> rA -> inv1 -> rB -> out1, clocked from port clk.
    """
    b = NetlistBuilder("pipe")
    b.inputs("clk", "in1")
    rA = b.dff("rA", d="in1", clk="clk")
    inv1 = b.inv("inv1", rA.q)
    rB = b.dff("rB", d=inv1.out, clk="clk")
    b.output("out1", rB.q)
    return b.build()


@pytest.fixture
def reconvergent_netlist():
    """Reconvergent fanout: rS -> (buf path | inv path) -> AND -> rE."""
    b = NetlistBuilder("reconv")
    b.inputs("clk", "in1")
    rS = b.dff("rS", d="in1", clk="clk")
    p1 = b.buf("p1", rS.q)
    p2 = b.inv("p2", rS.q)
    join = b.and2("join", p1.out, p2.out)
    rE = b.dff("rE", d=join.out, clk="clk")
    b.output("out1", rE.q)
    return b.build()


@pytest.fixture(scope="module")
def design_netlists():
    """Designs A-F, their held-out instances (the same structure from
    other generator seeds, as the benchmark's ``--held-out`` draws them)
    and one design of each adversarial family, by name."""
    import dataclasses

    from repro.workloads.designs import paper_suite
    from repro.workloads.families import build_family, family_names
    from repro.workloads.generator import generate
    from repro.workloads.seeding import stable_seed

    netlists = {}
    for letter, design in paper_suite().items():
        netlists[letter] = generate(design.spec).netlist
        held_out = dataclasses.replace(
            design.spec, seed=stable_seed("perfbench", "held-out", letter))
        netlists[f"{letter}-held-out"] = generate(held_out).netlist
    for family in family_names():
        netlists[family] = build_family(family, 0).netlist
    return netlists
