"""Parameter sweeps over the merge pipeline's tunables.

The paper leaves two knobs implicit that practitioners immediately ask
about: the *tolerance limit* used when deciding whether constraint values
are "common" (Sections 3.1.2/3.1.6), and how the flow scales with the
*number of modes*.  These sweeps quantify both on synthetic workloads and
back the ablation benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.merger import MergeOptions
from repro.core.mergeability import build_mergeability_graph, merge_all
from repro.timing.report import format_table
from repro.workloads.generator import ModeGroupSpec, Workload, WorkloadSpec, generate


@dataclass
class TolerancePoint:
    tolerance: float
    mergeable_pairs: int
    merge_groups: int
    reduction_percent: float


@dataclass
class ToleranceSweep:
    """Mergeability as a function of the tolerance limit."""

    points: List[TolerancePoint] = field(default_factory=list)

    def format(self) -> str:
        body = [[f"{p.tolerance:.2f}", str(p.mergeable_pairs),
                 str(p.merge_groups), f"{p.reduction_percent:.1f}"]
                for p in self.points]
        return ("Tolerance sweep: mergeability vs tolerance limit\n"
                + format_table(["Tolerance", "Mergeable pairs",
                                "Merge groups", "% reduction"], body))


def sweep_tolerance(workload: Workload,
                    tolerances: Sequence[float] = (0.0, 0.05, 0.1, 0.25,
                                                   0.5, 1.0)
                    ) -> ToleranceSweep:
    """Re-run the mergeability analysis at several tolerance limits.

    A larger tolerance admits more value spread between modes, so the
    mergeability graph can only gain edges as tolerance grows (asserted by
    tests as a monotonicity property).
    """
    sweep = ToleranceSweep()
    for tolerance in tolerances:
        options = MergeOptions(tolerance=tolerance)
        analysis = build_mergeability_graph(workload.netlist,
                                            workload.modes, options)
        modes = len(workload.modes)
        groups = len(analysis.groups)
        sweep.points.append(TolerancePoint(
            tolerance=tolerance,
            mergeable_pairs=len(analysis.mergeable_pairs()),
            merge_groups=groups,
            reduction_percent=100.0 * (modes - groups) / modes if modes else 0.0,
        ))
    return sweep


@dataclass
class ScalingPoint:
    mode_count: int
    analysis_seconds: float
    merge_seconds: float
    reduction_percent: float


@dataclass
class ModeCountSweep:
    """Flow runtime as a function of the mode count."""

    points: List[ScalingPoint] = field(default_factory=list)

    def format(self) -> str:
        body = [[str(p.mode_count), f"{p.analysis_seconds:.2f}",
                 f"{p.merge_seconds:.2f}", f"{p.reduction_percent:.1f}"]
                for p in self.points]
        return ("Mode-count sweep: flow runtime vs #modes\n"
                + format_table(["#Modes", "Analysis (s)", "Merging (s)",
                                "% reduction"], body))


def sweep_mode_count(counts: Sequence[int] = (2, 4, 8, 16),
                     seed: int = 77, groups_of: int = 4) -> ModeCountSweep:
    """Grow one design's mode count and measure the flow's two phases.

    Modes are organized in groups of ``groups_of`` so the reduction ratio
    stays comparable across points while the O(modes^2) analysis cost and
    the per-group merge cost scale.
    """
    sweep = ModeCountSweep()
    for count in counts:
        n_groups = max(1, count // groups_of)
        sizes = [groups_of] * n_groups
        sizes[-1] += count - sum(sizes)
        spec = WorkloadSpec(
            name=f"scale{count}", seed=seed,
            n_domains=2, banks_per_domain=2, regs_per_bank=4,
            cloud_gates=12, n_config_bits=4, n_data_inputs=3,
            groups=tuple(
                ModeGroupSpec(f"g{i}", size,
                              input_transition=round(0.08 * 1.5 ** i, 6))
                for i, size in enumerate(sizes)),
        )
        workload = generate(spec)
        start = time.perf_counter()
        analysis = build_mergeability_graph(workload.netlist, workload.modes)
        analysis_seconds = time.perf_counter() - start
        start = time.perf_counter()
        run = merge_all(workload.netlist, workload.modes, analysis=analysis)
        merge_seconds = time.perf_counter() - start
        sweep.points.append(ScalingPoint(
            mode_count=count,
            analysis_seconds=analysis_seconds,
            merge_seconds=merge_seconds,
            reduction_percent=run.reduction_percent,
        ))
    return sweep
