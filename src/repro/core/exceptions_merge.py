"""Preliminary merging steps 3.1.9 (intersection of exceptions) and
3.1.10 (exception uniquification).

Exceptions (``set_false_path``, ``set_multicycle_path``, ``set_min_delay``,
``set_max_delay``) present in *every* individual mode are added to the
merged mode directly.  An exception present only in a subset ``S`` of the
modes cannot be added as-is — it would constrain paths that are valid in
the other modes — so we *uniquify* it: restrict it to the clocks of the
modes in ``S`` (turning ``-from <pins>`` into
``-from [get_clocks <S clocks>] -through <pins>`` as the paper's
Constraint Set 4 shows).  Uniquification is sound only when the restricting
clock set is disjoint from the other modes' clocks; when it is not:

* false paths are dropped (the Section 3.2 refinement re-derives precise
  replacements), and
* other exceptions are dropped *and recorded as a mergeability conflict* —
  a changed multicycle or min/max requirement cannot be recovered by
  adding false paths alone, although this implementation's refinement can
  also synthesize clock-restricted MCP/delay fixes (an extension noted in
  DESIGN.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import (Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from repro.core.steps import (
    Conflict,
    MergeContext,
    Row,
    RuleVerdict,
    StepReport,
    group_rows,
)
from repro.obs.context import current
from repro.obs.provenance import RULE_INTERSECTION, RULE_UNIQUIFIED
from repro.sdc.commands import (
    Constraint,
    ObjectRef,
    PathSpec,
    SetFalsePath,
)


def _split_refs(refs) -> Tuple[List[ObjectRef], List[ObjectRef]]:
    """Split a -from/-to list into (clock refs, non-clock refs)."""
    clock_refs = [r for r in refs if r.is_clock_ref]
    other_refs = [r for r in refs if not r.is_clock_ref]
    return clock_refs, other_refs


def uniquify_exception(constraint: Constraint,
                       own_clocks: Set[str],
                       other_clocks: Set[str]) -> Optional[Constraint]:
    """Rewrite ``constraint`` so it only applies under ``own_clocks``.

    Returns the uniquified constraint, or ``None`` when no sound rewrite
    exists.  ``own_clocks`` are the (merged-name) clocks of the modes that
    have the exception; ``other_clocks`` those of the modes that do not.
    """
    spec: PathSpec = constraint.spec
    from_clock_refs, from_pin_refs = _split_refs(spec.from_refs)
    to_clock_refs, to_pin_refs = _split_refs(spec.to_refs)

    from_clock_names = {p for r in from_clock_refs for p in r.patterns}
    to_clock_names = {p for r in to_clock_refs for p in r.patterns}

    # Already unique through its -from clocks?
    if from_clock_names and not from_pin_refs:
        if not (from_clock_names & other_clocks):
            return constraint
    # Already unique through its -to clocks?
    if to_clock_names and not to_pin_refs:
        if not (to_clock_names & other_clocks):
            return constraint

    restrict = sorted(own_clocks - other_clocks)
    launch_restrict_sound = bool(restrict) and not (own_clocks & other_clocks)

    # Mixed pin+clock -from/-to lists are OR-semantics selections we cannot
    # soundly tighten; give up on those.
    if from_clock_refs and from_pin_refs:
        return None
    if to_clock_refs and to_pin_refs:
        return None

    # Rewrites relocate pin selections into -through groups, which have
    # no edge qualifiers: refuse when the moved side carries one.
    if launch_restrict_sound and not from_clock_refs \
            and not (from_pin_refs and (spec.rise_from or spec.fall_from)):
        # -from <pins> ... -> -from [get_clocks restrict] -through <pins> ...
        new_through = tuple(from_pin_refs) + tuple(spec.through_refs)
        new_spec = PathSpec(
            from_refs=(ObjectRef.clocks(*restrict),),
            through_refs=new_through,
            to_refs=spec.to_refs,
            rise_from=spec.rise_from, fall_from=spec.fall_from,
            rise_to=spec.rise_to, fall_to=spec.fall_to,
        )
        return replace(constraint, spec=new_spec)

    if launch_restrict_sound and not to_clock_refs \
            and not (to_pin_refs and (spec.rise_to or spec.fall_to)):
        # Capture-side restriction: -to <pins> -> -through <pins>
        # -to [get_clocks restrict].
        new_through = tuple(spec.through_refs) + tuple(to_pin_refs)
        new_spec = PathSpec(
            from_refs=spec.from_refs,
            through_refs=new_through,
            to_refs=(ObjectRef.clocks(*restrict),),
            rise_from=spec.rise_from, fall_from=spec.fall_from,
            rise_to=spec.rise_to, fall_to=spec.fall_to,
        )
        return replace(constraint, spec=new_spec)

    return None


def _own_and_other_clocks(mode_names: Sequence[str],
                          mode_clocks: Mapping[str, Set[str]],
                          present: Set[str]) -> Tuple[Set[str], Set[str]]:
    """Clocks of the modes that have an exception, and of those that do not."""
    own: Set[str] = set()
    other: Set[str] = set()
    for name in mode_names:
        (own if name in present else other).update(mode_clocks[name])
    return own, other


def exception_verdicts(mode_names: Sequence[str], rows: Iterable[Row],
                       mode_clocks: Mapping[str, Set[str]]
                       ) -> Iterator[RuleVerdict]:
    """Step 3.1.9/3.1.10's rule over clock-mapped rows, set by set.

    An exception in every mode is kept as is; one in some modes is kept
    uniquified, or dropped when no sound rewrite exists -- a conflict
    unless it is a false path, which refinement can re-derive.
    ``mode_clocks`` holds each mode's clocks in merged names.
    """
    modes = tuple(mode_names)
    for key, entries in group_rows(rows).items():
        present = {name for name, _ in entries}
        sample = entries[0][1]
        if len(present) == len(modes):
            yield RuleVerdict(key, entries, [], [], sample)
            continue
        missing = [name for name in modes if name not in present]
        uniquified = uniquify_exception(
            sample, *_own_and_other_clocks(modes, mode_clocks, present))
        conflicts = []
        if uniquified is None and not isinstance(sample, SetFalsePath):
            conflicts.append(Conflict(
                tuple(sorted(present) + missing),
                f"{sample.command} of modes {sorted(present)} not "
                f"uniquifiable and not recoverable by false paths alone"))
        yield RuleVerdict(key, entries, missing, conflicts, uniquified)


def merge_exceptions(context: MergeContext) -> StepReport:
    report = context.report("exceptions (3.1.9/3.1.10)")
    obs = current()
    metrics, ledger = obs.metrics, obs.decisions
    mode_count = len(context.modes)
    mode_clocks = {mode.name: set(context.mapped_clocks(mode))
                   for mode in context.modes}

    def _subject(constraint: Constraint) -> str:
        from repro.sdc.writer import write_constraint

        return f"constraint:{write_constraint(constraint)}"

    rows: List[Row] = []
    for mode in context.modes:
        mapping = context.clock_maps[mode.name]
        for constraint in mode.exceptions():
            mapped = constraint.rename_clocks(mapping)
            rows.append((mode.name, mapped, mapped.key()))

    for _key, entries, missing, conflicts, uniquified in \
            exception_verdicts(context.mode_names(), rows, mode_clocks):
        present = {name for name, _ in entries}
        sample = entries[0][1]
        if len(present) == mode_count:
            report.add(context.merged.add(sample))
            context.provenance.record(
                sample, RULE_INTERSECTION, sorted(present),
                step="exceptions", detail="exception common to all modes")
            metrics.inc("exceptions.intersected")
            if ledger.enabled:
                ledger.decide(
                    "exception.merge", _subject(sample),
                    verdict="intersected",
                    evidence=["exception common to all modes"],
                    modes=sorted(present))
            continue

        if uniquified is not None:
            own_clocks, other_clocks = _own_and_other_clocks(
                context.mode_names(), mode_clocks, present)
            restrict = sorted(own_clocks - other_clocks)
            report.add(context.merged.add(uniquified))
            context.provenance.record(
                uniquified, RULE_UNIQUIFIED, sorted(present),
                step="exceptions",
                detail="clock-restricted to its source modes"
                if uniquified is not sample
                else "already unique through its clocks")
            metrics.inc("exceptions.uniquified")
            if ledger.enabled:
                ledger.decide(
                    "exception.merge", _subject(sample),
                    verdict="uniquified",
                    evidence=[f"restricted to clocks {restrict} of "
                              f"modes {sorted(present)}"
                              if uniquified is not sample
                              else "already unique through its clocks",
                              f"became {_subject(uniquified)[11:]}"],
                    modes=sorted(present))
            if uniquified is not sample:
                report.note(
                    f"{sample.command} of modes {sorted(present)} uniquified "
                    f"by restricting to clocks {restrict}")
            continue

        # No sound rewrite.
        report.conflicts.extend(conflicts)
        for name, constraint in entries:
            report.drop(name, constraint)
        metrics.inc("exceptions.dropped", len(entries))
        if ledger.enabled:
            ledger.decide(
                "exception.merge", _subject(sample),
                verdict="dropped",
                evidence=[f"not uniquifiable: clocks of modes "
                          f"{sorted(present)} overlap those of {missing}",
                          "refinement will attempt precise replacements"],
                modes=sorted(present))
        if isinstance(sample, SetFalsePath):
            report.note(
                f"false path of modes {sorted(present)} not uniquifiable "
                f"(clock overlap with {missing}); dropped for refinement")
        else:
            report.note(
                f"{sample.command} of modes {sorted(present)} dropped; "
                f"refinement will attempt clock/endpoint-restricted fixes")
    return report
