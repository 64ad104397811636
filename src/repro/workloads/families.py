"""Adversarial workload families for the fuzzing harness.

Each family builds a small netlist+modes :class:`Workload` that stresses
one merge-pipeline weak spot the paper-suite designs exercise only
lightly:

* ``scan-pairs`` — scan shift / at-speed capture mode pairs next to
  functional modes, so scan-clock handling and the clock-mux case
  analysis interact with merging.
* ``genclock-deep`` — a chain of divide-by-2 generated clocks several
  levels deep (each level's master is the previous generated clock), so
  clock refinement has to track a generated-clock *tree*, not one hop.
* ``exception-stack`` — a register pipeline with stacks of overlapping
  timing exceptions (false path over multicycle over multicycle through
  the same pins, plus duplicates), so exception precedence survives a
  merge.
* ``lowpower-retention`` — several independently clock-gated power
  domains whose modes retain different domain *subsets*, so conflicting
  case analysis on the gate enables must be dropped and re-derived.

Every family is a function ``(seed) -> Workload`` registered in
:data:`FAMILIES`.  All internal randomness derives from the seed
argument alone, through :func:`~repro.workloads.seeding.stable_rng` —
never ``hash()`` and never the environment — so one seed means the same
workload in every process.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.netlist.builder import NetlistBuilder
from repro.sdc.mode import Mode
from repro.sdc.parser import parse_mode
from repro.workloads.generator import (
    ModeGroupSpec,
    Workload,
    WorkloadSpec,
    generate,
)
from repro.workloads.seeding import stable_rng


def _family_rng(family: str, seed: int) -> random.Random:
    """Family-local, process-stable RNG for one ``(family, seed)``."""
    return stable_rng("workloads.families", family, seed)


# ---------------------------------------------------------------------------
# scan-pairs: shift + at-speed capture + functional mode families
# ---------------------------------------------------------------------------
def scan_pairs(seed: int) -> Workload:
    rng = _family_rng("scan-pairs", seed)
    groups = (
        ModeGroupSpec("func", rng.randint(2, 3), kind="func",
                      input_transition=0.08),
        ModeGroupSpec("shift", rng.randint(1, 2), kind="scan",
                      input_transition=0.12, period_scale=1.5),
        ModeGroupSpec("atspeed", rng.randint(1, 2), kind="capture",
                      input_transition=0.18, period_scale=1.0),
    )
    spec = WorkloadSpec(
        name=f"scanpairs_s{seed}",
        seed=seed,
        n_domains=rng.choice([2, 3]),
        banks_per_domain=2, regs_per_bank=4, cloud_gates=10,
        n_config_bits=3, n_data_inputs=3, cross_domain_paths=1,
        groups=groups,
    )
    return generate(spec)


# ---------------------------------------------------------------------------
# genclock-deep: chained generated-clock dividers
# ---------------------------------------------------------------------------
def genclock_deep(seed: int) -> Workload:
    rng = _family_rng("genclock-deep", seed)
    depth = rng.randint(2, 4)
    name = f"genclockdeep_s{seed}"

    b = NetlistBuilder(name)
    clk = b.input("clk")
    din = b.input("din")
    cfg = [b.input(f"cfg{j}") for j in range(2)]
    cfg_sig = [b.buf(f"cfgbuf{j}", port).out for j, port in enumerate(cfg)]

    # Divider chain: level L's register is clocked by level L-1's Q.
    level_clock = clk
    div_pins: List[str] = []
    for level in range(depth):
        div = b.gate("DFFQN", f"div{level}", output_pin="Q", CP=level_clock)
        b.connect(div.qn, f"div{level}/D")
        div_pins.append(div.q)
        level_clock = div.q

    # One small register bank per level, fed through a config-gated cloud.
    prev = din
    for level in range(depth):
        gate = b.and2(f"en{level}", prev, cfg_sig[level % len(cfg_sig)])
        reg = b.dff(f"r{level}", d=gate.out, clk=div_pins[level])
        prev = reg.q
    b.output("dout", prev)
    netlist = b.build()

    def clock_lines() -> List[str]:
        lines = ["create_clock -name CLK -period 4 [get_ports clk]"]
        master = "CLK"
        for level in range(depth):
            lines.append(
                f"create_generated_clock -name GDIV{level} -divide_by 2 "
                f"-master_clock {master} -source "
                f"[get_{'ports' if level == 0 else 'pins'} "
                f"{'clk' if level == 0 else div_pins[level - 1]}] "
                f"[get_pins {div_pins[level]}]")
            master = f"GDIV{level}"
        return lines

    group_sizes = [rng.randint(2, 3), rng.randint(1, 2)]
    modes: List[Mode] = []
    group_of: Dict[str, str] = {}
    for g, size in enumerate(group_sizes):
        for index in range(size):
            mode_name = f"g{g}_m{index}"
            lines = clock_lines()
            # Mergeable per-mode differences: case analysis on the config
            # bits and a droppable false path between clock-tree levels.
            for j in range(len(cfg)):
                lines.append(f"set_case_analysis {(index >> j) & 1} "
                             f"[get_ports cfg{j}]")
            if rng.random() < 0.8:
                level = rng.randrange(depth)
                lines.append(f"set_false_path -from [get_clocks CLK] "
                             f"-to [get_clocks GDIV{level}]")
            lines.append("set_input_delay 0.5 -clock CLK [get_ports din]")
            lines.append(f"set_output_delay 0.5 -clock GDIV{depth - 1} "
                         f"[get_ports dout]")
            # Out-of-tolerance transition separates the two groups.
            lines.append(f"set_input_transition "
                         f"{round(0.08 * (1.5 ** g), 6):g} [get_ports din]")
            modes.append(parse_mode("\n".join(lines), mode_name))
            group_of[mode_name] = f"g{g}"

    spec = WorkloadSpec(
        name=name, seed=seed,
        groups=tuple(ModeGroupSpec(f"g{g}", size)
                     for g, size in enumerate(group_sizes)))
    return Workload(spec=spec, netlist=netlist, modes=modes,
                    group_of=group_of)


# ---------------------------------------------------------------------------
# exception-stack: overlapping timing exceptions through shared pins
# ---------------------------------------------------------------------------
def exception_stack(seed: int) -> Workload:
    rng = _family_rng("exception-stack", seed)
    stages = rng.randint(3, 5)
    name = f"exceptionstack_s{seed}"

    b = NetlistBuilder(name)
    clk = b.input("clk")
    din = b.input("din")
    sel = b.input("sel")

    # A linear pipeline with a named buffer between each stage — the
    # buffer outputs are stable -through pins for stacked exceptions.
    prev = din
    through: List[str] = []
    for stage in range(stages):
        buf = b.buf(f"t{stage}", prev)
        through.append(buf.out)
        reg = b.dff(f"r{stage}", d=buf.out, clk=clk)
        prev = reg.q
    b.output("dout", prev)
    netlist = b.build()

    group_sizes = [rng.randint(2, 4), rng.randint(1, 2)]
    modes: List[Mode] = []
    group_of: Dict[str, str] = {}
    for g, size in enumerate(group_sizes):
        for index in range(size):
            mode_name = f"g{g}_m{index}"
            lines = ["create_clock -name CLK -period 2 [get_ports clk]",
                     "set_case_analysis 0 [get_ports sel]"]
            # The pathological part: a stack of overlapping exceptions on
            # the SAME pins — false path over multicycle over multicycle —
            # shared by the whole group, plus an exact duplicate line.
            pin_a, pin_b = through[0], through[min(1, stages - 1)]
            lines.append(f"set_false_path -through [get_pins {pin_a}]")
            lines.append(f"set_multicycle_path 2 -setup "
                         f"-through [get_pins {pin_a}]")
            lines.append(f"set_multicycle_path 4 -setup "
                         f"-through [get_pins {pin_a}] "
                         f"-through [get_pins {pin_b}]")
            lines.append(f"set_multicycle_path 2 -setup "
                         f"-through [get_pins {pin_a}]")
            # Mode-unique droppable exceptions deeper in the stack.
            extras = rng.randint(1, min(3, stages))
            for _ in range(extras):
                pin = through[rng.randrange(stages)]
                if rng.random() < 0.5:
                    lines.append(f"set_false_path -through [get_pins {pin}]")
                else:
                    lines.append(f"set_multicycle_path {rng.choice([2, 3])} "
                                 f"-setup -through [get_pins {pin}]")
            lines.append("set_input_delay 0.4 -clock CLK [get_ports din]")
            lines.append("set_output_delay 0.4 -clock CLK [get_ports dout]")
            lines.append(f"set_input_transition "
                         f"{round(0.08 * (1.5 ** g), 6):g} [get_ports din]")
            modes.append(parse_mode("\n".join(lines), mode_name))
            group_of[mode_name] = f"g{g}"

    spec = WorkloadSpec(
        name=name, seed=seed,
        groups=tuple(ModeGroupSpec(f"g{g}", size)
                     for g, size in enumerate(group_sizes)))
    return Workload(spec=spec, netlist=netlist, modes=modes,
                    group_of=group_of)


# ---------------------------------------------------------------------------
# lowpower-retention: partial-retention clock-gated power domains
# ---------------------------------------------------------------------------
def lowpower_retention(seed: int) -> Workload:
    rng = _family_rng("lowpower-retention", seed)
    n_domains = rng.randint(2, 4)
    name = f"lowpower_s{seed}"

    b = NetlistBuilder(name)
    clk = b.input("clk")
    din = b.input("din")
    enables = [b.input(f"pwr{d}") for d in range(n_domains)]

    # Each power domain: its own ICG off the root clock, a tiny bank.
    prev = din
    for d in range(n_domains):
        icg = b.icg(f"icg{d}", clk, enables[d])
        for r in range(2):
            gate = b.buf(f"pd{d}_b{r}", prev)
            reg = b.dff(f"pd{d}_r{r}", d=gate.out, clk=icg.out)
            prev = reg.q
    b.output("dout", prev)
    netlist = b.build()

    group_sizes = [rng.randint(2, 4), rng.randint(1, 2)]
    modes: List[Mode] = []
    group_of: Dict[str, str] = {}
    for g, size in enumerate(group_sizes):
        for index in range(size):
            mode_name = f"g{g}_m{index}"
            lines = ["create_clock -name CLK -period 5 [get_ports clk]"]
            # Partial retention: each mode keeps a different subset of
            # domains alive.  The conflicting 0/1 case analysis across a
            # group is exactly what the merge must drop and the 3-pass
            # refinement must re-derive.
            retained = rng.sample(range(n_domains),
                                  rng.randint(1, n_domains))
            for d in range(n_domains):
                lines.append(f"set_case_analysis "
                             f"{1 if d in retained else 0} "
                             f"[get_ports pwr{d}]")
            lines.append("set_input_delay 0.6 -clock CLK [get_ports din]")
            lines.append("set_output_delay 0.6 -clock CLK [get_ports dout]")
            lines.append(f"set_input_transition "
                         f"{round(0.08 * (1.5 ** g), 6):g} [get_ports din]")
            modes.append(parse_mode("\n".join(lines), mode_name))
            group_of[mode_name] = f"g{g}"

    spec = WorkloadSpec(
        name=name, seed=seed,
        groups=tuple(ModeGroupSpec(f"g{g}", size)
                     for g, size in enumerate(group_sizes)))
    return Workload(spec=spec, netlist=netlist, modes=modes,
                    group_of=group_of)


#: name -> builder; the fuzz harness adds its ``sdc-mutate`` family on top.
FAMILIES: Dict[str, Callable[[int], Workload]] = {
    "scan-pairs": scan_pairs,
    "genclock-deep": genclock_deep,
    "exception-stack": exception_stack,
    "lowpower-retention": lowpower_retention,
}


def family_names() -> Tuple[str, ...]:
    return tuple(sorted(FAMILIES))


def build_family(family: str, seed: int) -> Workload:
    """Build one workload of ``family`` from ``seed`` (deterministic)."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise KeyError(f"unknown workload family {family!r}; "
                       f"known: {', '.join(family_names())}") from None
    return builder(seed)
