"""Shared plumbing for the preliminary-merge steps.

Every step of Section 3.1 consumes a :class:`MergeContext` (the design, the
individual modes, the clock maps produced by the clock-union step, and the
merged mode under construction) and records what it did in a
:class:`StepReport`.  Conflicts recorded by a step are the signals the
mergeability analysis (Section 3's mock run) uses to declare mode pairs
non-mergeable.

A step records each decision once, with :meth:`StepReport.record`: the
verdict, the constraint it puts into the merged mode (if any), the merge
rule, the source modes, one detail text, and the entries it dropped and
the conflicts it found.  The report's ``added``, ``dropped``, ``notes``
and ``conflicts``, the context's provenance view, the step counters and
the leaf decisions of an enabled ledger are all read from those records.

The three steps that can conflict (3.1.2, 3.1.6, 3.1.9) judge each set of
corresponding constraints with a *rule*: a generator of
:class:`RuleVerdict` that the step acts on and that the mergeability
pre-check reads only up to its first conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.netlist.netlist import Netlist
from repro.obs.context import current
from repro.obs.provenance import ProvenanceLedger, ProvenanceRecord
from repro.sdc.commands import Constraint
from repro.sdc.mode import Mode
from repro.sdc.writer import write_constraint
from repro.timing.graph import TimingGraph, build_graph

#: (mode name, constraint, identity key) -- one rule input row
Row = Tuple[str, Constraint, Tuple]

#: The step counters, read from the decisions as they are recorded:
#: step -> verdict -> counter.  A decision adds one to its counter, or
#: the number of entries it dropped.
_STEP_COUNTERS: Dict[str, Dict[str, str]] = {
    "exceptions": {"intersected": "exceptions.intersected",
                   "uniquified": "exceptions.uniquified",
                   "dropped": "exceptions.dropped"},
    "clock_refinement": {"stopped": "clock_refinement.stops"},
    "data_refinement": {"falsified": "data_refinement.false_paths"},
    "three_pass": {"synthesized": "three_pass.fixes",
                   "unresolved": "three_pass.residuals"},
}

#: Verdicts of the decisions that carry a mode's constraint into the
#: merged mode as it is.
_AS_IS = ("added", "kept", "intersected")

#: Steps that report their counters on every run, at zero when they
#: count nothing; the exception counters appear once they count.
_COUNTED_PER_RUN = ("clock_refinement", "data_refinement", "three_pass")


@dataclass
class Conflict:
    """A reason two (or more) modes cannot be merged cleanly."""

    modes: Tuple[str, ...]
    reason: str

    def __str__(self) -> str:
        return f"[{', '.join(self.modes)}] {self.reason}"


@dataclass
class StepDecision(ProvenanceRecord):
    """One decision of a merge step, recorded once.

    The lineage fields say which rule decided, from which modes, in which
    step and why; ``constraint`` is what the decision put into the merged
    mode, None when it put nothing there.
    """

    verdict: str = ""
    #: (mode name, constraint) entries the decision left out
    dropped: Tuple[Tuple[str, Constraint], ...] = ()
    conflicts: Tuple[Conflict, ...] = ()


class StepReport:
    """What one merge step decided: its :class:`StepDecision` records."""

    def __init__(self, name: str, step: str, merged: Mode,
                 lineage: Dict[int, StepDecision]):
        self.name = name
        #: the pipeline stage key (``clock_union``, ``exceptions``, ...)
        self.step = step
        self.decisions: List[StepDecision] = []
        #: notes that record no decision (clock renames, iterations)
        self._plain_notes: List[str] = []
        #: the context's merged mode and lineage map (not the context
        #: itself, which holds its reports)
        self._merged = merged
        self._lineage = lineage
        if step in _COUNTED_PER_RUN:
            metrics = current().metrics
            for counter in _STEP_COUNTERS[step].values():
                metrics.inc(counter, 0)

    def record(self, verdict: str, constraint: Optional[Constraint],
               rule: str, sources: Sequence[str], detail: str = "", *,
               dropped: Sequence[Tuple[str, Constraint]] = (),
               conflicts: Sequence[Conflict] = (),
               kind: str = "", subject: Union[str, Constraint] = "",
               attrs: Optional[dict] = None) -> StepDecision:
        """Record one decision, and put ``constraint`` into the merged mode.

        Recording a constraint that a decision of this merge already put
        there adds ``sources`` to that decision instead (a duplicate clock
        or external delay of another mode).  With a ledger ``kind``, an
        enabled ledger gets a leaf decision on ``subject``, with
        ``detail`` as evidence and ``attrs``, by default the source modes;
        a constraint subject is written as ``constraint:<sdc>`` only then.
        """
        lineage = self._lineage
        if constraint is not None:
            earlier = lineage.get(id(constraint))
            if earlier is not None:
                for name in sources:
                    earlier.add_source(name)
                if detail and not earlier.detail:
                    earlier.detail = detail
                return earlier
            self._merged.add(constraint)
        decision = StepDecision(
            rule=rule, source_modes=list(sources), step=self.step,
            detail=detail, constraint=constraint, verdict=verdict,
            dropped=tuple(dropped), conflicts=tuple(conflicts))
        self.decisions.append(decision)
        if constraint is not None:
            lineage[id(constraint)] = decision
        obs = current()
        counter = _STEP_COUNTERS.get(self.step, {}).get(verdict)
        if counter is not None:
            obs.metrics.inc(counter, len(decision.dropped) or 1)
        if kind and obs.decisions.enabled:
            if isinstance(subject, Constraint):
                subject = f"constraint:{write_constraint(subject)}"
            obs.decisions.decide(
                kind, subject, verdict=verdict, evidence=[detail],
                **({"modes": list(sources)} if attrs is None else attrs))
        return decision

    def note(self, text: str) -> None:
        """A note that records no decision."""
        self._plain_notes.append(text)

    @property
    def added(self) -> List[Constraint]:
        return [d.constraint for d in self.decisions
                if d.constraint is not None]

    @property
    def dropped(self) -> List[Tuple[str, Constraint]]:
        return [entry for d in self.decisions for entry in d.dropped]

    @property
    def conflicts(self) -> List[Conflict]:
        return [c for d in self.decisions for c in d.conflicts]

    @property
    def notes(self) -> List[str]:
        """The details of the decisions that changed or left out a mode's
        constraint without a conflict, then the plain notes.

        A constraint kept as it is shows in the provenance only, and a
        conflict reads in ``conflicts``.
        """
        return [d.detail for d in self.decisions
                if d.verdict not in _AS_IS and not d.conflicts] \
            + self._plain_notes

    def summary(self) -> str:
        return (f"{self.name}: +{len(self.added)} constraints, "
                f"-{len(self.dropped)} dropped, "
                f"{len(self.conflicts)} conflicts")


class RuleVerdict(NamedTuple):
    """A Section 3.1 rule's verdict on one set of corresponding constraints."""

    key: Tuple
    #: (mode name, constraint) in mode order
    entries: List[Tuple[str, Constraint]]
    #: modes the rule expected the constraint in that lack it
    missing: List[str]
    conflicts: List[Conflict]
    #: what the step carries into the merged mode (before any value
    #: merging); None when it drops the set
    kept: Optional[Constraint]


def group_rows(rows: Iterable[Row]) -> Dict[Tuple, List[Tuple[str, Constraint]]]:
    """Key -> its (mode name, constraint) entries, keys in first-seen order."""
    groups: Dict[Tuple, List[Tuple[str, Constraint]]] = {}
    for mode_name, constraint, key in rows:
        entries = groups.get(key)
        if entries is None:
            groups[key] = [(mode_name, constraint)]
        else:
            entries.append((mode_name, constraint))
    return groups


def first_conflict(verdicts: Iterable[RuleVerdict]) -> Optional[Conflict]:
    """The first conflict a rule records, judging no further sets."""
    for verdict in verdicts:
        if verdict.conflicts:
            return verdict.conflicts[0]
    return None


class MergeContext:
    """State shared by all merge steps for one merge group."""

    def __init__(self, netlist: Netlist, modes: List[Mode],
                 merged_name: Optional[str] = None):
        if not modes:
            raise ValueError("need at least one mode to merge")
        self.netlist = netlist
        self.graph: TimingGraph = build_graph(netlist)
        self.modes = list(modes)
        self.merged_name = merged_name or "+".join(m.name for m in modes)
        self.merged = Mode(self.merged_name)
        #: per individual mode: original clock name -> merged clock name
        self.clock_maps: Dict[str, Dict[str, str]] = {
            m.name: {} for m in modes}
        #: merged clock name -> list of (mode name, original clock name)
        self.reverse_clock_map: Dict[str, List[Tuple[str, str]]] = {}
        self.reports: List[StepReport] = []
        #: id(constraint) -> the decision that put it into the merged mode
        self.lineage: Dict[int, StepDecision] = {}
        #: the per-constraint view of those decisions
        self.provenance = ProvenanceLedger(self.lineage)
        #: the last binding of the merged mode (see bind_merged)
        self._binding = None
        #: the 3-pass's individual-mode rows and the merged binding they
        #: are aligned to (:class:`~repro.core.three_pass.IndividualRows`);
        #: the equivalence validation adopts them while they still hold
        self.individual_rows = None

    def bound_individuals(self):
        """Bound (resolved) views of the individual modes.

        Cached on the netlist per mode, so a binding lives as long as its
        netlist: individual modes are never mutated by the merge
        pipeline, and the mergeability analysis re-binds the same modes
        for every pairwise mock merge.
        """
        if not hasattr(self, "_bound_individuals"):
            from repro.timing.context import BoundMode

            cache = self.netlist.derived.setdefault("bound_modes", {})
            bound = []
            for mode in self.modes:
                cached = cache.get(id(mode))
                if cached is None or cached.mode is not mode \
                        or cached.graph is not self.graph:
                    cached = BoundMode(self.netlist, mode, self.graph)
                    cache[id(mode)] = cached
                bound.append(cached)
            self._bound_individuals = bound
        return self._bound_individuals

    def bind_merged(self):
        """A new bound view of the merged mode (it grows step by step).

        When the merged mode only grew since the last call, the view is
        the last one extended by the appended constraints
        (:meth:`~repro.timing.context.BoundMode.extended`), which skips
        constant propagation; otherwise the mode is bound afresh.
        """
        from repro.timing.context import BoundMode

        bound = None
        if self._binding is not None:
            bound = self._binding.extended(self.merged)
        if bound is None:
            bound = BoundMode(self.netlist, self.merged, self.graph)
        self._binding = bound
        return bound

    def release_binding(self) -> None:
        """Forget the last merged binding and the individual rows aligned
        to a merged binding; the next ones start afresh."""
        self._binding = None
        self.individual_rows = None

    def report(self, name: str, step: str = "") -> StepReport:
        """A new report of pipeline stage ``step``, in pipeline order."""
        report = StepReport(name, step, self.merged, self.lineage)
        self.reports.append(report)
        return report

    @property
    def dropped_cases(self) -> List[Tuple[str, Constraint]]:
        """The case-analysis constraints step 3.1.4 dropped (mode, case)."""
        return [entry for report in self.reports
                if report.step == "case_analysis"
                for entry in report.dropped]

    def clock_map(self, mode_name: str) -> Dict[str, str]:
        return self.clock_maps[mode_name]

    def mapped_clocks(self, mode: Mode) -> List[str]:
        """The merged-mode names of one individual mode's clocks."""
        mapping = self.clock_maps[mode.name]
        return [mapping.get(name, name) for name in mode.clock_names()]

    def all_conflicts(self) -> List[Conflict]:
        out: List[Conflict] = []
        for report in self.reports:
            out.extend(report.conflicts)
        return out

    def mode_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.modes)
