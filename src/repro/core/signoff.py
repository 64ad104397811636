"""Sign-off guard: verify -> localize -> repair for failed merges.

The paper's value proposition is *sign-off accuracy*: a merged mode must
time exactly the union of the paths timed by its individual modes
(Section 3.2's in-built validation).  The pipeline is correct by
construction, but a merge that survives every step and still fails its
equivalence validation — a buggy constraint interaction, damaged input,
a regression in a merge step — used to be merely *reported*.  The guard
turns the validation into a closed loop:

1. **Verify** — ``merge_all`` hands the guard every group whose result
   fails validation (residual mismatches or ``check_equivalence``).
2. **Localize** — bisect over the group's modes (recursive halving with
   a leave-one-out reduction) to a minimal failing subset, then
   delta-debug over the offending mode's exception / case-analysis
   constraints to the minimal culprit set.
3. **Repair** — try, in order: re-merge with the culprit constraint
   *uniquified* (clock-restricted to its own mode, the paper's 3.1.10
   rewrite), re-merge with it *dropped*, and finally *demote* the
   culprit mode to its own group.  Every candidate repair is accepted
   only if the re-merged mode verifies equivalent against the
   **original, unmodified** modes — the guard can therefore never trade
   one sign-off violation for another.

Every decision is recorded as a ``Diagnostic`` in the ``SGN`` code
namespace, and the whole loop is bounded by a re-merge attempt budget
(``MergeOptions.max_repair_attempts`` / ``--max-repair-attempts``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.equivalence import check_mode_equivalence
from repro.core.exceptions_merge import uniquify_exception
from repro.core.merger import MergeOptions, MergeResult, merge_modes
from repro.diagnostics import DiagnosticCollector, Severity
from repro.obs.context import current
from repro.obs.explain import group_subject
from repro.netlist.netlist import Netlist
from repro.sdc.commands import Constraint
from repro.sdc.mode import Mode
from repro.sdc.writer import write_constraint


class _AttemptsExhausted(Exception):
    """Internal: the guard's re-merge budget ran out mid-localization."""


@dataclass
class GuardedOutcome:
    """One final outcome the guard hands back to ``merge_all``."""

    mode_names: List[str]
    result: Optional[MergeResult]
    error: str = ""
    #: True when this outcome exists because the guard changed something
    repaired: bool = False


class SignoffGuard:
    """Verify->localize->repair loop for one failing merge group.

    A fresh guard is created per failing group, so the attempt budget
    bounds the work spent on each group independently.  ``merge_fn`` is
    injectable for fault-injection tests (it must be call-compatible
    with :func:`~repro.core.merger.merge_modes`).
    """

    def __init__(self, netlist: Netlist, modes: Sequence[Mode],
                 options: MergeOptions, sink: DiagnosticCollector,
                 merge_fn: Optional[Callable[..., MergeResult]] = None):
        self.netlist = netlist
        self.by_name: Dict[str, Mode] = {m.name: m for m in modes}
        #: repairs must validate, never abort, and keep the caller's
        #: policy and budgets
        self.options = replace(options, strict=False, validate=True)
        self.sink = sink
        self.max_attempts = max(1, options.max_repair_attempts)
        self.attempts = 0
        self.merge_fn = merge_fn or merge_modes
        #: provenance ledger of the merge under repair; lets SGN
        #: diagnostics name the exact lineage a repair cuts
        self._failed_ledger = None

    # ------------------------------------------------------------------
    # budgeted primitives
    # ------------------------------------------------------------------
    def _merge(self, modes: Sequence[Mode],
               name: Optional[str] = None) -> Optional[MergeResult]:
        """One budgeted re-merge attempt; failures collapse to None."""
        if self.attempts >= self.max_attempts:
            raise _AttemptsExhausted()
        self.attempts += 1
        try:
            return self.merge_fn(self.netlist, list(modes), name=name,
                                 options=self.options)
        except Exception:
            return None

    @staticmethod
    def _clean(result: Optional[MergeResult]) -> bool:
        return result is not None and result.ok

    def _fails(self, names: Sequence[str]) -> bool:
        """Does merging this subset of the *original* modes fail?"""
        return not self._clean(
            self._merge([self.by_name[n] for n in names]))

    def _verified(self, result: Optional[MergeResult],
                  original_names: Sequence[str]) -> bool:
        """Is a candidate repair equivalent to the ORIGINAL modes?"""
        if result is None or result.outcome.residuals:
            return False
        originals = [self.by_name[n] for n in original_names]
        try:
            report = check_mode_equivalence(
                self.netlist, originals, result.merged,
                clock_maps=result.clock_maps)
        except Exception:
            return False
        return report.equivalent

    # ------------------------------------------------------------------
    # localization
    # ------------------------------------------------------------------
    def _localize_modes(self, names: List[str]) -> List[str]:
        """Minimal failing subset of the group's modes (>= 2 modes)."""
        current = list(names)
        while len(current) > 2:
            half = len(current) // 2
            left, right = current[:half], current[half:]
            if len(left) > 1 and self._fails(left):
                current = left
                continue
            if len(right) > 1 and self._fails(right):
                current = right
                continue
            break  # the failure spans both halves
        reduced = True
        while reduced and len(current) > 2:
            reduced = False
            for i in range(len(current)):
                rest = current[:i] + current[i + 1:]
                if self._fails(rest):
                    current = rest
                    reduced = True
                    break
        return current

    def _removal_variant(self, mode: Mode,
                         removed: Sequence[Constraint]) -> Mode:
        return Mode(mode.name, [c for c in mode
                                if not any(c is r for r in removed)])

    def _passes_without(self, subset: Sequence[str], mode_name: str,
                        removed: Sequence[Constraint]) -> bool:
        variant = self._removal_variant(self.by_name[mode_name], removed)
        modes = [variant if n == mode_name else self.by_name[n]
                 for n in subset]
        result = self._merge(modes)
        return self._clean(result) and self._verified(result, subset)

    def _localize_constraints(self, subset: List[str]
                              ) -> Optional[Tuple[str, List[Constraint]]]:
        """Minimal culprit constraint set, delta-debugged per mode."""
        for mode_name in subset:
            mode = self.by_name[mode_name]
            candidates: List[Constraint] = list(mode.exceptions())
            candidates.extend(mode.case_analyses())
            if not candidates:
                continue
            if not self._passes_without(subset, mode_name, candidates):
                continue  # not attributable to this mode's constraints
            removed = list(candidates)
            while len(removed) > 1:
                half = len(removed) // 2
                left, right = removed[:half], removed[half:]
                if self._passes_without(subset, mode_name, left):
                    removed = left
                    continue
                if self._passes_without(subset, mode_name, right):
                    removed = right
                    continue
                break  # both halves carry culprits
            return mode_name, removed
        return None

    # ------------------------------------------------------------------
    # repairs
    # ------------------------------------------------------------------
    def _uniquify_variant(self, mode_name: str,
                          culprits: Sequence[Constraint]) -> Optional[Mode]:
        """The culprit constraints clock-restricted to their own mode."""
        mode = self.by_name[mode_name]
        own = set(mode.clock_names())
        other: set = set()
        for name, m in self.by_name.items():
            if name != mode_name:
                other.update(m.clock_names())
        replacements: List[Tuple[Constraint, Constraint]] = []
        for culprit in culprits:
            if not hasattr(culprit, "spec"):
                return None  # only path exceptions can be uniquified
            rewritten = uniquify_exception(culprit, own, other)
            if rewritten is None or rewritten is culprit:
                return None
            replacements.append((culprit, rewritten))
        constraints = list(mode)
        for old, new in replacements:
            constraints[next(i for i, c in enumerate(constraints)
                             if c is old)] = new
        return Mode(mode.name, constraints)

    def _try_repaired_merge(self, names: Sequence[str], mode_name: str,
                            variant: Mode) -> Optional[MergeResult]:
        modes = [variant if n == mode_name else self.by_name[n]
                 for n in names]
        result = self._merge(modes)
        if self._clean(result) and self._verified(result, names):
            return result
        return None

    def _lineage_details(self, mode_name: str,
                         culprits: Sequence[Constraint]) -> Dict[str, object]:
        """Structured lineage of the constraints a repair is about to cut.

        Pulls the provenance records of the failed merge that were sourced
        from the culprit mode, so the diagnostic names not only the input
        constraints but what they became in the merged mode.
        """
        details: Dict[str, object] = {
            "culprit_mode": mode_name,
            "culprit_constraints": [write_constraint(c) for c in culprits],
        }
        if self._failed_ledger is not None:
            lineage = [str(rec) for rec in self._failed_ledger.records()
                       if mode_name in rec.source_modes]
            commands = {c.command for c in culprits}
            matched = [line for line in lineage
                       if any(line.startswith(cmd) for cmd in commands)]
            details["merged_lineage"] = matched or lineage[:10]
        return details

    def _repair_constraints(self, names: List[str], mode_name: str,
                            culprits: List[Constraint]
                            ) -> Optional[List[GuardedOutcome]]:
        texts = "; ".join(write_constraint(c) for c in culprits)
        lineage = self._lineage_details(mode_name, culprits)
        uniquified = self._uniquify_variant(mode_name, culprits)
        if uniquified is not None:
            result = self._try_repaired_merge(names, mode_name, uniquified)
            if result is not None:
                self.sink.report(
                    "SGN003",
                    f"repaired group {{{', '.join(names)}}} by uniquifying "
                    f"{len(culprits)} constraint(s) of mode {mode_name!r}: "
                    f"{texts}",
                    severity=Severity.WARNING, source=mode_name,
                    details=dict(lineage, repair="uniquified"))
                current().metrics.inc("signoff.repairs")
                return [GuardedOutcome(list(names), result, repaired=True)]
        dropped = self._removal_variant(self.by_name[mode_name], culprits)
        result = self._try_repaired_merge(names, mode_name, dropped)
        if result is not None:
            self.sink.report(
                "SGN003",
                f"repaired group {{{', '.join(names)}}} by dropping "
                f"{len(culprits)} constraint(s) of mode {mode_name!r}: "
                f"{texts}",
                severity=Severity.WARNING, source=mode_name,
                details=dict(lineage, repair="dropped"))
            current().metrics.inc("signoff.repairs")
            return [GuardedOutcome(list(names), result, repaired=True)]
        return None

    def _demote(self, names: List[str], subset: List[str]
                ) -> Optional[List[GuardedOutcome]]:
        """Last resort: pull one culprit mode out of the group."""
        for culprit in subset:
            survivors = [n for n in names if n != culprit]
            if not survivors:
                continue
            result = self._merge(
                [self.by_name[n] for n in survivors],
                name=survivors[0] if len(survivors) == 1 else None)
            if not self._clean(result):
                continue
            self.sink.report(
                "SGN004",
                f"sign-off guard demoted mode {culprit!r} from group "
                f"{{{', '.join(names)}}}: no constraint-level repair "
                f"verified equivalent",
                severity=Severity.WARNING, source=culprit,
                details=self._lineage_details(culprit, []))
            current().metrics.inc("signoff.demotions")
            single = self._merge([self.by_name[culprit]], name=culprit)
            outcomes = [GuardedOutcome(survivors, result, repaired=True)]
            if single is not None:
                outcomes.append(GuardedOutcome([culprit], single,
                                               repaired=True))
            else:
                outcomes.append(GuardedOutcome(
                    [culprit], None,
                    error="demoted by sign-off guard; individual merge "
                          "failed", repaired=True))
            return outcomes
        return None

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def repair_group(self, names: List[str], failed: MergeResult
                     ) -> Optional[List[GuardedOutcome]]:
        """Localize and repair one failing group.

        Returns the final outcomes for every mode of ``names``, or None
        when the guard could not verify any repair (the caller falls
        back to its usual bisection).
        """
        obs = current()
        tracer, metrics, ledger = obs.tracer, obs.metrics, obs.decisions
        self._failed_ledger = getattr(
            getattr(failed, "context", None), "provenance", None)
        metrics.inc("signoff.guard_engaged")
        problems = (list(failed.outcome.residuals)
                    + list(failed.validation_mismatches))
        self.sink.report(
            "SGN001",
            f"group {{{', '.join(names)}}} failed sign-off validation "
            f"with {len(problems)} mismatch(es); guard engaged "
            f"(first: {problems[0] if problems else 'unknown'})",
            severity=Severity.WARNING, source="+".join(names))
        attempts_before = self.attempts
        try:
            with tracer.span("signoff:guard", modes=list(names),
                             mismatches=len(problems)) as guard_span, \
                    ledger.frame(
                        "signoff.guard", group_subject(names),
                        modes=list(names),
                        mismatches=len(problems)) as guard_frame:
                with tracer.span("signoff:bisect", modes=list(names)) as span:
                    subset = self._localize_modes(list(names))
                    span.annotate(culprit_modes=list(subset))
                self.sink.report(
                    "SGN002",
                    f"culprit localized to modes {{{', '.join(subset)}}} "
                    f"of group {{{', '.join(names)}}}",
                    severity=Severity.INFO, source="+".join(subset))
                with tracer.span("signoff:delta_debug",
                                 modes=list(subset)) as span:
                    located = self._localize_constraints(subset)
                    if located is not None:
                        span.annotate(culprit_mode=located[0],
                                      culprits=len(located[1]))
                if located is not None:
                    mode_name, culprits = located
                    self.sink.report(
                        "SGN002",
                        f"culprit constraint(s) of mode {mode_name!r}: "
                        + "; ".join(write_constraint(c) for c in culprits),
                        severity=Severity.INFO, source=mode_name)
                    with tracer.span("signoff:repair", mode=mode_name):
                        repaired = self._repair_constraints(
                            names, mode_name, culprits)
                    if repaired is not None:
                        guard_span.annotate(outcome="repaired")
                        if ledger.enabled:
                            guard_frame.verdict = "repaired"
                        return repaired
                with tracer.span("signoff:repair", modes=list(subset)):
                    outcomes = self._demote(names, subset)
                outcome_label = \
                    "demoted" if outcomes is not None else "gave-up"
                guard_span.annotate(outcome=outcome_label)
                if ledger.enabled:
                    guard_frame.verdict = outcome_label
                return outcomes
        except _AttemptsExhausted:
            self.sink.report(
                "SGN005",
                f"sign-off guard exhausted its repair budget "
                f"({self.max_attempts} re-merge attempts) on group "
                f"{{{', '.join(names)}}}",
                severity=Severity.WARNING, source="+".join(names))
            return None
        finally:
            metrics.inc("signoff.repair_attempts",
                        self.attempts - attempts_before)
