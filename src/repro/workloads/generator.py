"""Synthetic multi-mode SoC workload generator.

The paper evaluates on proprietary industrial designs (0.2M-2.8M cells,
3-95 modes).  This generator builds laptop-scale designs with the same
*constraint structure* — the thing mode-merging complexity actually
depends on:

* several functional clock domains, each clocked through a scan/functional
  clock mux (so clock refinement has real work);
* register banks separated by random combinational clouds with
  reconvergence (so the 3-pass comparison has real work), config-bit
  gating (so case analysis interacts with sensitization) and a few
  cross-domain paths (so clock exclusivity and CDC false paths matter);
* mode families organized in *groups*: modes within a group differ by
  case-analysis values, mode-specific false paths and I/O delays (all
  mergeable differences); groups are separated by out-of-tolerance
  ``set_input_transition`` values (a paper-listed non-mergeable
  difference), so the mergeability analysis discovers exactly the intended
  cliques.

Determinism: everything derives from ``spec.seed`` via ``random.Random``
and :func:`repro.workloads.seeding.stable_seed` — the same spec yields
the same design and modes in every process (no ``hash()``-derived
seeds, which ``PYTHONHASHSEED`` would salt differently per process).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.netlist.builder import NetlistBuilder
from repro.netlist.netlist import Netlist
from repro.sdc.mode import Mode
from repro.sdc.parser import parse_mode
from repro.workloads.seeding import stable_rng

_GATES = ("AND2", "OR2", "NAND2", "NOR2", "XOR2", "INV", "BUF")


@dataclass
class ModeGroupSpec:
    """One family of mutually-mergeable modes."""

    name: str
    count: int
    kind: str = "func"            # "func" | "scan" | "capture" | "test"
    #: group-unique drive value; >10% apart across groups => non-mergeable
    input_transition: float = 0.1
    #: base clock period scale of this group's functional clocks
    period_scale: float = 1.0


@dataclass
class WorkloadSpec:
    """Parameters of one synthetic design + its mode set."""

    name: str
    seed: int = 1
    n_domains: int = 2
    banks_per_domain: int = 3
    regs_per_bank: int = 6
    cloud_gates: int = 24
    n_config_bits: int = 4
    n_data_inputs: int = 4
    cross_domain_paths: int = 2
    #: insert an integrated clock gate on domain 0, enabled by cfg0
    with_clock_gating: bool = False
    #: add a divide-by-2 generated clock domain fed from domain 0
    with_generated_clocks: bool = False
    groups: Tuple[ModeGroupSpec, ...] = (
        ModeGroupSpec("g0", 2),
    )

    @property
    def total_modes(self) -> int:
        return sum(g.count for g in self.groups)


@dataclass
class Workload:
    """A generated design with its modes and bookkeeping."""

    spec: WorkloadSpec
    netlist: Netlist
    modes: List[Mode]
    #: mode name -> group name (ground truth for the mergeability graph)
    group_of: Dict[str, str] = field(default_factory=dict)

    @property
    def expected_groups(self) -> List[List[str]]:
        by_group: Dict[str, List[str]] = {}
        for mode in self.modes:
            by_group.setdefault(self.group_of[mode.name], []).append(mode.name)
        return sorted(by_group.values(), key=lambda g: (-len(g), g))

    @property
    def cell_count(self) -> int:
        return self.netlist.cell_count


def generate(spec: WorkloadSpec) -> Workload:
    """Build the netlist and all modes for ``spec``."""
    rng = random.Random(spec.seed)
    netlist, info = _build_netlist(spec, rng)
    modes: List[Mode] = []
    group_of: Dict[str, str] = {}
    for group in spec.groups:
        for index in range(group.count):
            mode = _build_mode(spec, group, index, info,
                               stable_rng(spec.seed, group.name, index))
            modes.append(mode)
            group_of[mode.name] = group.name
    return Workload(spec=spec, netlist=netlist, modes=modes,
                    group_of=group_of)


# ---------------------------------------------------------------------------
# netlist construction
# ---------------------------------------------------------------------------
@dataclass
class _DesignInfo:
    """Names the mode builder needs."""

    clock_ports: List[str] = field(default_factory=list)
    scan_clock_port: str = "scan_clk"
    scan_mode_port: str = "scan_mode"
    config_ports: List[str] = field(default_factory=list)
    data_inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    #: per domain: list of banks, each a list of register instance names
    banks: List[List[List[str]]] = field(default_factory=list)
    #: pins suitable for -through in mode-specific false paths
    through_pins: List[str] = field(default_factory=list)
    #: config-gate output pins (affected by case analysis)
    config_gate_pins: List[str] = field(default_factory=list)
    #: name of the clock-gate enable port ("" when not generated)
    gating_enable_port: str = ""
    #: source pin of the generated clock ("" when not generated)
    generated_clock_pin: str = ""
    #: registers clocked by the generated clock
    generated_regs: List[str] = field(default_factory=list)


def _build_netlist(spec: WorkloadSpec, rng: random.Random
                   ) -> Tuple[Netlist, _DesignInfo]:
    b = NetlistBuilder(spec.name)
    info = _DesignInfo()

    for d in range(spec.n_domains):
        info.clock_ports.append(b.input(f"clk{d}"))
    b.input(info.scan_clock_port)
    b.input(info.scan_mode_port)
    for j in range(spec.n_config_bits):
        info.config_ports.append(b.input(f"cfg{j}"))
    for k in range(spec.n_data_inputs):
        info.data_inputs.append(b.input(f"in{k}"))

    # Clock network: per-domain scan/functional mux.
    domain_clock: List[str] = []
    for d in range(spec.n_domains):
        mux = b.mux2(f"clkmux{d}", f"clk{d}", info.scan_clock_port,
                     info.scan_mode_port)
        domain_clock.append(mux.out)

    # Optional clock gate on domain 0, enabled from cfg0 (so per-mode case
    # analysis turns the gated subtree's clocking on and off).
    if spec.with_clock_gating and info.config_ports:
        info.gating_enable_port = info.config_ports[0]
        icg = b.icg("icg0", domain_clock[0], info.gating_enable_port)
        domain_clock[0] = icg.out

    # Optional divide-by-2 generated clock: a toggling divider register
    # whose Q clocks a small extra bank.
    if spec.with_generated_clocks:
        divider = b.gate("DFFQN", "clkdiv", output_pin="Q",
                         CP=domain_clock[0])
        b.connect(divider.qn, "clkdiv/D")
        info.generated_clock_pin = divider.q

    # Config buffers (so config bits fan into the clouds through real cells).
    config_signals = [b.buf(f"cfgbuf{j}", port).out
                      for j, port in enumerate(info.config_ports)]

    reg_counter = 0
    gate_counter = 0
    all_bank_outputs: List[List[str]] = []  # per domain, last bank Q pins

    for d in range(spec.n_domains):
        info.banks.append([])
        # First bank samples the data inputs.
        prev_outputs: List[str] = list(info.data_inputs)
        for bank_idx in range(spec.banks_per_domain):
            # Cloud between prev_outputs and this bank.
            pool = list(prev_outputs)
            pool.extend(rng.sample(config_signals,
                                   min(2, len(config_signals))))
            cloud_outputs: List[str] = []
            for _ in range(spec.cloud_gates):
                gate_type = rng.choice(_GATES)
                gate_counter += 1
                gname = f"g{d}_{bank_idx}_{gate_counter}"
                if gate_type in ("INV", "BUF"):
                    src = rng.choice(pool)
                    ref = b.gate(gate_type, gname, A=src)
                else:
                    src_a = rng.choice(pool)
                    src_b = rng.choice(pool)
                    ref = b.gate(gate_type, gname, A=src_a, B=src_b)
                pool.append(ref.out)
                cloud_outputs.append(ref.out)
                if rng.random() < 0.15:
                    info.through_pins.append(ref.out)
                if gate_type in ("AND2", "NOR2") and rng.random() < 0.3:
                    info.config_gate_pins.append(ref.out)

            bank_regs: List[str] = []
            bank_q: List[str] = []
            for r in range(spec.regs_per_bank):
                reg_counter += 1
                rname = f"r{d}_{bank_idx}_{r}"
                source = cloud_outputs[(r * 7) % len(cloud_outputs)] \
                    if cloud_outputs else prev_outputs[r % len(prev_outputs)]
                reg = b.dff(rname, d=source, clk=domain_clock[d])
                bank_regs.append(rname)
                bank_q.append(reg.q)
            info.banks[d].append(bank_regs)
            prev_outputs = bank_q
        all_bank_outputs.append(prev_outputs)

    # Cross-domain paths: a gate fed from two domains' last banks, captured
    # in domain 0's extra registers.
    for x in range(spec.cross_domain_paths):
        if spec.n_domains < 2:
            break
        d_from = x % spec.n_domains
        d_to = (x + 1) % spec.n_domains
        src_a = rng.choice(all_bank_outputs[d_from])
        src_b = rng.choice(all_bank_outputs[d_to])
        gate = b.and2(f"cdc{x}", src_a, src_b)
        reg = b.dff(f"rcdc{x}", d=gate.out, clk=domain_clock[d_to])
        info.banks[d_to][-1].append(f"rcdc{x}")

    # Generated-clock bank.
    if spec.with_generated_clocks:
        for r in range(max(2, spec.regs_per_bank // 2)):
            name = f"rgen{r}"
            source = all_bank_outputs[0][r % len(all_bank_outputs[0])]
            b.dff(name, d=source, clk=info.generated_clock_pin)
            info.generated_regs.append(name)

    # Outputs: one per domain from the last bank.
    for d in range(spec.n_domains):
        out_name = f"out{d}"
        b.output(out_name, all_bank_outputs[d][0])
        info.outputs.append(out_name)

    return b.build(), info


# ---------------------------------------------------------------------------
# mode construction
# ---------------------------------------------------------------------------
def _build_mode(spec: WorkloadSpec, group: ModeGroupSpec, index: int,
                info: _DesignInfo, rng: random.Random) -> Mode:
    name = f"{group.name}_m{index}"
    lines: List[str] = []

    if group.kind == "scan":
        # Scan shift: only the scan clock, slow, scan mode selected.
        period = 40.0 * group.period_scale
        lines.append(f"create_clock -name SCAN -period {period:g} "
                     f"[get_ports {info.scan_clock_port}]")
        lines.append(f"set_case_analysis 1 [get_ports {info.scan_mode_port}]")
        launch_clock = "SCAN"
        capture_clock = "SCAN"
    elif group.kind == "capture":
        # Scan capture: the scan clock AND the functional clocks are all
        # defined, and no case analysis pins the clock mux select — both
        # trees propagate through the muxes and only explicit false paths
        # keep the domains apart.  This is the classic at-speed capture
        # setup that stresses clock refinement during merging.
        period = 40.0 * group.period_scale
        lines.append(f"create_clock -name SCAN -period {period:g} "
                     f"[get_ports {info.scan_clock_port}]")
        for d, port in enumerate(info.clock_ports):
            fperiod = (8.0 + 2.0 * d) * group.period_scale
            lines.append(f"create_clock -name CLK{d} -period {fperiod:g} "
                         f"[get_ports {port}]")
        for d in range(spec.n_domains):
            lines.append(f"set_false_path -from [get_clocks SCAN] "
                         f"-to [get_clocks CLK{d}]")
            lines.append(f"set_false_path -from [get_clocks CLK{d}] "
                         f"-to [get_clocks SCAN]")
        launch_clock = "SCAN"
        capture_clock = "CLK0"
    else:
        for d, port in enumerate(info.clock_ports):
            period = (8.0 + 2.0 * d) * group.period_scale
            lines.append(f"create_clock -name CLK{d} -period {period:g} "
                         f"[get_ports {port}]")
        lines.append(f"set_case_analysis 0 [get_ports {info.scan_mode_port}]")
        launch_clock = "CLK0"
        capture_clock = f"CLK{spec.n_domains - 1}"
        if spec.with_clock_gating and info.gating_enable_port:
            # Functional modes drive the gate enable through case analysis
            # (most modes on, every third mode off).
            lines.append(f"set_case_analysis {0 if index % 3 == 2 else 1} "
                         f"[get_ports {info.gating_enable_port}]")
        if spec.with_generated_clocks and info.generated_clock_pin:
            lines.append(
                f"create_generated_clock -name CLKDIV -divide_by 2 "
                f"-master_clock CLK0 -source [get_ports "
                f"{info.clock_ports[0]}] "
                f"[get_pins {info.generated_clock_pin}]")
        # CDC false paths between functional domains: common to the whole
        # group (identical in every mode that has these clocks).
        for d in range(1, spec.n_domains):
            lines.append(f"set_false_path -from [get_clocks CLK0] "
                         f"-to [get_clocks CLK{d}]")
            lines.append(f"set_false_path -from [get_clocks CLK{d}] "
                         f"-to [get_clocks CLK0]")
        # A group-wide multicycle on config-influenced logic.
        if info.config_gate_pins:
            pin = info.config_gate_pins[0]
            lines.append(f"set_multicycle_path 2 -setup "
                         f"-through [get_pins {pin}]")

    # Mode-specific case analysis on config bits (the merge must drop the
    # conflicting ones and re-derive precision via refinement).
    for j, port in enumerate(info.config_ports):
        if port == info.gating_enable_port and \
                group.kind not in ("scan", "capture"):
            continue  # assigned explicitly above
        value = (index >> (j % 4)) & 1
        if rng.random() < 0.7:
            lines.append(f"set_case_analysis {value} [get_ports {port}]")

    # Mode-specific false paths (droppable; re-derived by the 3-pass).
    if info.through_pins and rng.random() < 0.8:
        pin = rng.choice(info.through_pins)
        lines.append(f"set_false_path -through [get_pins {pin}]")

    # I/O delays (unioned across modes).
    for k, port in enumerate(info.data_inputs):
        value = 0.5 + 0.25 * (k % 3)
        lines.append(f"set_input_delay {value:g} -clock {launch_clock} "
                     f"[get_ports {port}]")
    for out in info.outputs:
        lines.append(f"set_output_delay 0.5 -clock {capture_clock} "
                     f"[get_ports {out}]")

    # Environment: identical within a group, >tolerance apart across groups
    # (this is what makes cross-group pairs non-mergeable).
    for port in info.data_inputs:
        lines.append(f"set_input_transition {group.input_transition:g} "
                     f"[get_ports {port}]")

    # Common clock quality constraints (small intra-group jitter within the
    # merge tolerance window exercises the min/max value merging).
    uncertainty = 0.10 + 0.005 * (index % 3)
    clock_names = {"scan": "SCAN", "capture": "*"}.get(group.kind, "CLK*")
    lines.append(f"set_clock_uncertainty {uncertainty:g} "
                 f"[get_clocks {clock_names}]")

    return parse_mode("\n".join(lines), name)
