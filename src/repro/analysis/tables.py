"""Regeneration of the paper's result tables (Tables 5 and 6).

These functions run the full flow over the synthetic design suite and
print tables in the paper's layout, with our measured values next to the
paper's reported ones where the comparison is meaningful (reduction
percentages match by construction; absolute runtimes differ — a pure
Python engine on scaled designs vs a multithreaded C++ engine on
multi-million-gate designs — but the *shape*, who wins and by how much,
is preserved).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.conformity import ConformityReport, compare_conformity
from repro.baselines.no_merge import run_sta_all_modes
from repro.core.mergeability import MergingRun, merge_all
from repro.timing.report import format_table
from repro.workloads.designs import PaperDesign, paper_suite
from repro.workloads.generator import Workload, generate


@dataclass
class Table5Row:
    design: str
    cells: int
    individual_modes: int
    merged_modes: int
    reduction_pct: float
    merge_runtime_s: float
    paper_reduction_pct: float


@dataclass
class Table6Row:
    design: str
    individual_sta_s: float
    merged_sta_s: float
    reduction_pct: float
    conformity_pct: float
    paper_reduction_pct: float
    paper_conformity_pct: float


@dataclass
class SuiteResults:
    """Everything measured over the design suite."""

    table5: List[Table5Row] = field(default_factory=list)
    table6: List[Table6Row] = field(default_factory=list)
    runs: Dict[str, MergingRun] = field(default_factory=dict)
    conformity: Dict[str, ConformityReport] = field(default_factory=dict)

    def format_table5(self) -> str:
        body = []
        for row in self.table5:
            body.append([
                row.design, str(row.cells), str(row.individual_modes),
                str(row.merged_modes), f"{row.reduction_pct:.1f}",
                f"{row.merge_runtime_s:.2f}",
                f"{row.paper_reduction_pct:.1f}",
            ])
        if self.table5:
            avg = sum(r.reduction_pct for r in self.table5) / len(self.table5)
            paper_avg = sum(r.paper_reduction_pct for r in self.table5) \
                / len(self.table5)
            body.append(["Average", "", "", "", f"{avg:.1f}", "",
                         f"{paper_avg:.1f}"])
        return "Table 5: Mode reduction and merging runtime\n" + format_table(
            ["Design", "Cells", "#Modes Indiv", "#Modes Merged",
             "% Reduction", "Merge time (s)", "Paper % Reduction"], body)

    def format_table6(self) -> str:
        body = []
        for row in self.table6:
            body.append([
                row.design,
                f"{row.individual_sta_s:.2f}",
                f"{row.merged_sta_s:.2f}",
                f"{row.reduction_pct:.1f}",
                f"{row.conformity_pct:.2f}",
                f"{row.paper_reduction_pct:.1f}",
                f"{row.paper_conformity_pct:.2f}",
            ])
        if self.table6:
            avg = sum(r.reduction_pct for r in self.table6) / len(self.table6)
            conf = sum(r.conformity_pct for r in self.table6) / len(self.table6)
            paper_avg = sum(r.paper_reduction_pct for r in self.table6) \
                / len(self.table6)
            paper_conf = sum(r.paper_conformity_pct for r in self.table6) \
                / len(self.table6)
            body.append(["Average", "", "", f"{avg:.1f}", f"{conf:.2f}",
                         f"{paper_avg:.1f}", f"{paper_conf:.2f}"])
        return ("Table 6: STA runtime reduction and QoR conformity\n"
                + format_table(
                    ["Design", "Indiv STA (s)", "Merged STA (s)",
                     "% Reduction", "Conformity %", "Paper % Red.",
                     "Paper Conf. %"], body))


#: Paper Table 6 per-design numbers for side-by-side reporting.
PAPER_TABLE6 = {
    "A": (84.3, 99.89),
    "B": (58.7, 100.00),
    "C": (51.5, 99.91),
    "D": (58.2, 99.18),
    "E": (61.1, 99.93),
    "F": (61.3, 100.00),
}


def run_design(design: PaperDesign, results: SuiteResults,
               run_sta: bool = True) -> Workload:
    """Run mode merging (Table 5 row) and optionally STA (Table 6 row)."""
    workload = generate(design.spec)
    start = time.perf_counter()
    run = merge_all(workload.netlist, workload.modes)
    merge_runtime = time.perf_counter() - start
    results.runs[design.name] = run
    results.table5.append(Table5Row(
        design=design.name,
        cells=workload.cell_count,
        individual_modes=len(workload.modes),
        merged_modes=run.merged_count,
        reduction_pct=run.reduction_percent,
        merge_runtime_s=merge_runtime,
        paper_reduction_pct=design.paper_reduction_pct,
    ))

    if run_sta:
        individual = run_sta_all_modes(workload.netlist, workload.modes)
        merged = run_sta_all_modes(workload.netlist, run.merged_modes())
        conformity = compare_conformity(individual, merged)
        results.conformity[design.name] = conformity
        ind_s = individual.total_runtime_seconds
        merged_s = merged.total_runtime_seconds
        paper_red, paper_conf = PAPER_TABLE6.get(design.name, (0.0, 0.0))
        results.table6.append(Table6Row(
            design=design.name,
            individual_sta_s=ind_s,
            merged_sta_s=merged_s,
            reduction_pct=100.0 * (1 - merged_s / ind_s) if ind_s else 0.0,
            conformity_pct=conformity.percent,
            paper_reduction_pct=paper_red,
            paper_conformity_pct=paper_conf,
        ))
    return workload


def run_suite(designs: Optional[Sequence[str]] = None, scale: float = 1.0,
              run_sta: bool = True) -> SuiteResults:
    """Run the suite (default: all of A-F) and collect both tables."""
    suite = paper_suite(scale)
    results = SuiteResults()
    for name in designs or sorted(suite):
        run_design(suite[name], results, run_sta=run_sta)
    return results
