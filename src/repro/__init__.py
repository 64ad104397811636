"""repro — timing-graph based SDC mode merging.

A from-scratch reproduction of *"A Timing Graph Based Approach to Mode
Merging"* (Sripada & Palla, DAC 2015): a gate-level netlist model, an SDC
constraint subsystem, a tag-based timing-relationship engine with a full
setup-STA, and on top of those the paper's contribution — automated merging
of N timing modes into one sign-off-accurate superset mode.

Quickstart::

    from repro import figure1_circuit, parse_mode, merge_modes

    netlist = figure1_circuit()
    mode_a = parse_mode(open("a.sdc").read(), "A")
    mode_b = parse_mode(open("b.sdc").read(), "B")
    result = merge_modes(netlist, [mode_a, mode_b])
    print(result.summary())
"""

from repro.core import (
    MergeOptions,
    MergeResult,
    MergingRun,
    SignoffGuard,
    WatchdogBudget,
    build_mergeability_graph,
    check_mode_equivalence,
    merge_all,
    merge_modes,
)
from repro.diagnostics import (
    DegradationPolicy,
    Diagnostic,
    DiagnosticCollector,
    Severity,
    diagnostic_from_error,
)
from repro.netlist import (
    Netlist,
    NetlistBuilder,
    figure1_circuit,
    read_verilog,
    write_verilog,
)
from repro.sdc import Mode, ModeSet, parse_mode, parse_sdc, write_mode
from repro.timing import (
    BoundMode,
    RelationshipExtractor,
    StaResult,
    run_sta,
)

try:  # single source of truth: the installed package metadata
    from importlib.metadata import PackageNotFoundError, version

    __version__ = version("repro")
except PackageNotFoundError:  # running from a source tree (PYTHONPATH=src)
    __version__ = "1.0.0"

__all__ = [
    "BoundMode",
    "DegradationPolicy",
    "Diagnostic",
    "DiagnosticCollector",
    "MergeOptions",
    "MergeResult",
    "MergingRun",
    "SignoffGuard",
    "WatchdogBudget",
    "Mode",
    "ModeSet",
    "Netlist",
    "NetlistBuilder",
    "RelationshipExtractor",
    "Severity",
    "StaResult",
    "build_mergeability_graph",
    "diagnostic_from_error",
    "check_mode_equivalence",
    "figure1_circuit",
    "merge_all",
    "merge_modes",
    "parse_mode",
    "parse_sdc",
    "read_verilog",
    "run_sta",
    "write_mode",
    "__version__",
]
