"""The merge orchestrator: N mergeable modes -> 1 superset mode.

``merge_modes`` runs the full pipeline of the paper in order:

1. preliminary mode merging (Section 3.1): clock union, clock-based
   constraints, external delays, case analysis, disable timing, drive/load,
   clock exclusivity, clock refinement, exceptions with uniquification;
2. merged-mode refinement (Section 3.2): data-network clock stops and the
   3-pass timing-relationship comparison with fix synthesis;
3. (optional) an independent equivalence check of the result — the
   "correct by construction" validation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.case_analysis import merge_case_analysis
from repro.core.clock_constraints import DEFAULT_TOLERANCE, merge_clock_constraints
from repro.core.clock_groups import merge_clock_exclusivity
from repro.core.clock_refinement import refine_clock_network
from repro.core.clock_union import merge_clocks
from repro.core.data_refinement import refine_data_clocks
from repro.core.disable_timing import merge_disable_timing
from repro.core.drive_load import merge_drive_load
from repro.core.exceptions_merge import merge_exceptions
from repro.core.external_delays import merge_external_delays
from repro.core.steps import Conflict, MergeContext, StepReport
from repro.core.three_pass import ThreePassOutcome, run_three_pass
from repro.core.watchdog import WatchdogBudget
from repro.diagnostics import DegradationPolicy
from repro.errors import MergeStepError, RefinementError
from repro.netlist.netlist import Netlist
from repro.obs.context import current
from repro.obs.explain import group_subject
from repro.sdc.mode import Mode


@dataclass
class MergeOptions:
    """Tunables of the merge pipeline."""

    #: relative tolerance for "common" constraint values (3.1.2 / 3.1.6)
    tolerance: float = DEFAULT_TOLERANCE
    #: raise RefinementError when residual mismatches remain
    strict: bool = True
    #: run the independent equivalence check after merging
    validate: bool = True
    #: fault tolerance of the surrounding flow; under a recovery policy
    #: a step that raises is re-raised as :class:`MergeStepError` naming
    #: the failing stage, so ``merge_all`` can demote the offending modes
    policy: DegradationPolicy = DegradationPolicy.STRICT
    #: wall-clock seconds the refinement engines of one merge may spend
    #: (None = unbounded); exceeded -> BudgetExceededError / demotion.
    #: A pooled ``--jobs`` task gets twice that plus one second before
    #: its worker is killed and the task retried.
    budget_seconds: Optional[float] = None
    #: run the sign-off guard: on a failed equivalence validation,
    #: localize the culprit mode/constraint and repair (merge_all only)
    signoff_guard: bool = False
    #: re-merge attempts the sign-off guard may spend per failing group
    max_repair_attempts: int = 12

    def result_fingerprint(self) -> str:
        """Stable key of every tunable that can change merge *results*.

        The persistent result cache keys on this.  ``strict`` is
        excluded: ``merge_all`` coerces it per group.
        """
        return "|".join(str(v) for v in (
            self.tolerance, self.validate,
            getattr(self.policy, "value", self.policy),
            self.budget_seconds, self.signoff_guard,
            self.max_repair_attempts,
        ))

    def watchdog(self) -> Optional[WatchdogBudget]:
        """A fresh armed budget for one merge call, or None when unset."""
        budget = WatchdogBudget(budget_seconds=self.budget_seconds)
        return budget.start() if budget.enabled else None


@dataclass
class MergeResult:
    """Outcome of merging one group of modes."""

    merged: Mode
    context: MergeContext
    outcome: ThreePassOutcome
    runtime_seconds: float = 0.0
    validated: bool = False
    validation_mismatches: List[str] = field(default_factory=list)

    @property
    def conflicts(self) -> List[Conflict]:
        return self.context.all_conflicts()

    @property
    def reports(self) -> List[StepReport]:
        return self.context.reports

    @property
    def clock_maps(self) -> Dict[str, Dict[str, str]]:
        return self.context.clock_maps

    @property
    def ok(self) -> bool:
        return self.outcome.clean and not self.validation_mismatches

    def to_dict(self) -> dict:
        """JSON-serializable record of the merge (for CI artifacts)."""
        from repro.sdc.writer import write_constraint

        return {
            "merged_mode": self.merged.name,
            "individual_modes": [m.name for m in self.context.modes],
            "constraint_count": len(self.merged),
            "runtime_seconds": round(self.runtime_seconds, 6),
            "ok": self.ok,
            "clock_maps": {name: dict(mapping)
                           for name, mapping in self.clock_maps.items()},
            "steps": [
                {
                    "name": report.name,
                    "added": len(report.added),
                    "dropped": len(report.dropped),
                    "conflicts": [str(c) for c in report.conflicts],
                    "notes": report.notes,
                }
                for report in self.reports
            ],
            "refinement_fixes": [write_constraint(c)
                                 for c in self.outcome.added],
            "refinement_iterations": self.outcome.iterations,
            "residuals": list(self.outcome.residuals),
            "validation": {
                "ran": self.validated,
                "mismatches": list(self.validation_mismatches),
            },
            "provenance": [rec.to_dict()
                           for rec in self.context.provenance.records()],
        }

    def summary(self) -> str:
        lines = [
            f"merged mode {self.merged.name!r}: "
            f"{len(self.context.modes)} modes -> 1, "
            f"{len(self.merged)} constraints, "
            f"{self.runtime_seconds * 1000:.1f} ms",
        ]
        for report in self.reports:
            lines.append("  " + report.summary())
        if self.validated:
            status = "PASSED" if not self.validation_mismatches else (
                f"FAILED ({len(self.validation_mismatches)} mismatches)")
            lines.append(f"  equivalence validation: {status}")
        return "\n".join(lines)


def merge_modes(netlist: Netlist, modes: Sequence[Mode],
                name: Optional[str] = None,
                options: Optional[MergeOptions] = None) -> MergeResult:
    """Merge ``modes`` of ``netlist`` into one superset mode."""
    opts = options or MergeOptions()
    policy = DegradationPolicy.coerce(opts.policy)
    mode_names = [m.name for m in modes]
    obs = current()
    tracer, metrics = obs.tracer, obs.metrics

    def step(step_name, fn, *args):
        """Run one pipeline stage with per-step fault isolation.

        Under a recovery policy a raising step becomes a
        :class:`MergeStepError` naming the stage and the group, which
        ``merge_all`` turns into a demotion instead of a crash.  Under
        STRICT the call is transparent — historical behaviour.  Each
        stage runs under a ``step:<name>`` span carrying the constraint
        count so far and the watchdog budget remaining.
        """
        region = f"step:{step_name}"
        with obs.frame("merge.step", region, span=region,
                       modes=mode_names) as frame:
            if tracer.enabled:
                attrs = {"constraints_before": len(context.merged)}
                if budget is not None:
                    remaining = budget.remaining_seconds()
                    if remaining is not None:
                        attrs["budget_remaining_s"] = round(remaining, 3)
                frame.span.annotate(**attrs)
            if policy is DegradationPolicy.STRICT:
                out = fn(*args)
            else:
                try:
                    out = fn(*args)
                except MergeStepError:
                    raise
                except Exception as exc:
                    raise MergeStepError(step_name, mode_names, exc) from exc
            if tracer.enabled:
                frame.span.annotate(constraints_after=len(context.merged))
            return out

    start = time.perf_counter()
    budget = opts.watchdog()
    context = MergeContext(netlist, list(modes), name)
    metrics.inc("merge.runs")

    with obs.frame("merge.mode", group_subject(mode_names), span="merge",
                   modes=mode_names,
                   merged_mode=context.merged_name) as mode_frame:
        # --- preliminary mode merging (3.1) ---
        step("clock_union", merge_clocks, context)
        step("clock_constraints", merge_clock_constraints, context,
             opts.tolerance)
        step("external_delays", merge_external_delays, context)
        step("case_analysis", merge_case_analysis, context)
        step("disable_timing", merge_disable_timing, context)
        step("drive_load", merge_drive_load, context, opts.tolerance)
        step("clock_exclusivity", merge_clock_exclusivity, context)
        step("clock_refinement", refine_clock_network, context, budget)
        step("exceptions", merge_exceptions, context)

        # --- merged-mode refinement (3.2) ---
        step("data_refinement", refine_data_clocks, context)
        _report, outcome = step("three_pass", run_three_pass, context,
                                budget)

        result = MergeResult(
            merged=context.merged,
            context=context,
            outcome=outcome,
        )

        if opts.validate:
            from repro.core.equivalence import check_equivalence

            check = step("equivalence_validation", check_equivalence,
                         context, budget)
            result.validated = True
            result.validation_mismatches = check.mismatches

        result.runtime_seconds = time.perf_counter() - start
        if metrics.enabled:
            added = sum(len(r.added) for r in context.reports)
            dropped = sum(len(r.dropped) for r in context.reports)
            conflicts = sum(len(r.conflicts) for r in context.reports)
            metrics.inc("merge.constraints_added", added)
            metrics.inc("merge.constraints_dropped", dropped)
            metrics.inc("merge.step_conflicts", conflicts)
            metrics.observe("merge.group_seconds", result.runtime_seconds)
            from repro.obs.metrics import COUNT_BUCKETS

            metrics.observe("merge.group_constraints", len(context.merged),
                            buckets=COUNT_BUCKETS)
        if tracer.enabled:
            tracer.annotate(constraints=len(context.merged),
                            ok=result.ok,
                            runtime_ms=round(result.runtime_seconds * 1e3,
                                             3))
        decision = mode_frame.decision
        if decision is not None:
            decision.verdict = "merged" if result.ok else "incomplete"
            decision.evidence.append(
                f"{len(context.merged)} constraints from "
                f"{len(mode_names)} mode(s)")
    # The result keeps its context, which must not pin the last binding
    # (a whole bound view of the merged mode) for the result's lifetime.
    context.release_binding()
    if opts.strict and not result.ok:
        problems = outcome.residuals + result.validation_mismatches
        raise RefinementError(
            f"merge of {[m.name for m in modes]} left "
            f"{len(problems)} unresolved mismatches: {problems[:5]}")
    return result
