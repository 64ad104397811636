"""The paper's contribution: timing-graph based mode merging.

High-level entry points:

* :func:`~repro.core.merger.merge_modes` — merge N mergeable modes into one
  superset mode with built-in refinement and validation.
* :func:`~repro.core.mergeability.merge_all` — full design flow: build the
  mergeability graph, pick merge groups by greedy clique cover, merge each.
* :func:`~repro.core.equivalence.check_mode_equivalence` — audit any
  candidate superset mode against its individual modes.
"""

from repro.core.case_analysis import merge_case_analysis
from repro.core.clock_constraints import (
    DEFAULT_TOLERANCE,
    merge_clock_constraints,
    values_within_tolerance,
)
from repro.core.clock_groups import merge_clock_exclusivity
from repro.core.clock_refinement import refine_clock_network
from repro.core.clock_union import merge_clocks
from repro.core.data_refinement import refine_data_clocks
from repro.core.disable_timing import merge_disable_timing
from repro.core.drive_load import merge_drive_load
from repro.core.equivalence import (
    EquivalenceReport,
    check_equivalence,
    check_mode_equivalence,
)
from repro.core.exceptions_merge import merge_exceptions, uniquify_exception
from repro.core.external_delays import merge_external_delays
from repro.core.merger import MergeOptions, MergeResult, merge_modes
from repro.core.mergeability import (
    GroupOutcome,
    MergeabilityAnalysis,
    MergingRun,
    build_mergeability_graph,
    greedy_clique_cover,
    merge_all,
    pair_mergeable,
)
from repro.core.report import (
    format_merge_report,
    format_merging_run,
    format_pass_table,
)
from repro.core.signoff import SignoffGuard
from repro.core.steps import Conflict, MergeContext, StepReport
from repro.core.watchdog import WatchdogBudget
from repro.core.three_pass import (
    ComparisonEntry,
    ThreePassOutcome,
    ThreePassRefiner,
    classify,
    combine_strictest,
    effective_state,
    run_three_pass,
)

__all__ = [
    "ComparisonEntry",
    "Conflict",
    "DEFAULT_TOLERANCE",
    "EquivalenceReport",
    "GroupOutcome",
    "MergeContext",
    "MergeOptions",
    "MergeResult",
    "MergeabilityAnalysis",
    "MergingRun",
    "SignoffGuard",
    "StepReport",
    "ThreePassOutcome",
    "ThreePassRefiner",
    "WatchdogBudget",
    "build_mergeability_graph",
    "check_equivalence",
    "check_mode_equivalence",
    "classify",
    "combine_strictest",
    "effective_state",
    "format_merge_report",
    "format_merging_run",
    "format_pass_table",
    "greedy_clique_cover",
    "merge_all",
    "merge_case_analysis",
    "merge_clock_constraints",
    "merge_clock_exclusivity",
    "merge_clocks",
    "merge_disable_timing",
    "merge_drive_load",
    "merge_exceptions",
    "merge_external_delays",
    "merge_modes",
    "pair_mergeable",
    "refine_clock_network",
    "refine_data_clocks",
    "run_three_pass",
    "uniquify_exception",
    "values_within_tolerance",
]
