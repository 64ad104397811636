"""Netlist consistency checks.

``validate`` collects structural problems that would make timing analysis
meaningless: undriven nets with loads, floating input pins, multiply-driven
nets (already prevented at construction, but re-checked), dangling output
ports, and combinational cycles in the data network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.netlist.cells import ArcKind
from repro.netlist.netlist import Netlist, Pin, Port


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [f"validation: {len(self.errors)} errors, "
                 f"{len(self.warnings)} warnings"]
        lines.extend(f"  ERROR: {e}" for e in self.errors)
        lines.extend(f"  WARN:  {w}" for w in self.warnings)
        return "\n".join(lines)


def validate(netlist: Netlist) -> ValidationReport:
    """Run all structural checks over ``netlist``."""
    report = ValidationReport()
    _check_nets(netlist, report)
    _check_pins(netlist, report)
    _check_combinational_loops(netlist, report)
    return report


def _check_nets(netlist: Netlist, report: ValidationReport) -> None:
    for net in netlist.nets:
        if net.driver is None and net.loads:
            names = ", ".join(l.full_name for l in net.loads[:4])
            report.errors.append(
                f"net {net.name!r} has loads ({names}...) but no driver"
            )
        if net.driver is not None and not net.loads:
            report.warnings.append(
                f"net {net.name!r} driven by {net.driver.full_name} has no loads"
            )


def _check_pins(netlist: Netlist, report: ValidationReport) -> None:
    for inst in netlist.instances:
        for pin in inst.input_pins():
            if pin.net is None:
                report.errors.append(f"input pin {pin.full_name} is unconnected")
    for port in netlist.output_ports():
        if port.net is None:
            report.warnings.append(f"output port {port.name} is unconnected")


def _check_combinational_loops(netlist: Netlist, report: ValidationReport) -> None:
    """Detect cycles through combinational arcs (checks and launches break)."""
    # Build adjacency over output pins: out pin -> set of downstream out pins
    # reached through one net hop + one combinational arc.
    adjacency: Dict[str, List[str]] = {}
    for inst in netlist.instances:
        comb_arcs = [a for a in inst.cell.arcs if a.kind is ArcKind.COMBINATIONAL]
        for arc in comb_arcs:
            in_pin = inst.pins.get(arc.from_pin)
            out_pin = inst.pins.get(arc.to_pin)
            if in_pin is None or out_pin is None or in_pin.net is None:
                continue
            driver = in_pin.net.driver
            if isinstance(driver, Pin):
                adjacency.setdefault(driver.full_name, []).append(out_pin.full_name)
            elif isinstance(driver, Port):
                adjacency.setdefault(driver.name, []).append(out_pin.full_name)

    # Iterative DFS with colors.
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    for start in list(adjacency):
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(adjacency.get(start, ())))]
        color[start] = GREY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                state = color.get(nxt, WHITE)
                if state == GREY:
                    idx = path.index(nxt) if nxt in path else 0
                    cycle = path[idx:] + [nxt]
                    report.errors.append(
                        "combinational loop: " + " -> ".join(cycle)
                    )
                    continue
                if state == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                if path and path[-1] == node:
                    path.pop()
