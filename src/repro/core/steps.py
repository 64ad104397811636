"""Shared plumbing for the preliminary-merge steps.

Every step of Section 3.1 consumes a :class:`MergeContext` (the design, the
individual modes, the clock maps produced by the clock-union step, and the
merged mode under construction) and records what it did in a
:class:`StepReport`.  Conflicts recorded by a step are the signals the
mergeability analysis (Section 3's mock run) uses to declare mode pairs
non-mergeable.

The three steps that can conflict (3.1.2, 3.1.6, 3.1.9) judge each set of
corresponding constraints with a *rule*: a generator of
:class:`RuleVerdict` that the step acts on and that the mergeability
pre-check reads only up to its first conflict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.netlist.netlist import Netlist
from repro.obs.provenance import ProvenanceLedger
from repro.sdc.commands import Constraint
from repro.sdc.mode import Mode
from repro.timing.graph import TimingGraph, build_graph

#: (mode name, constraint, identity key) -- one rule input row
Row = Tuple[str, Constraint, Tuple]


@dataclass
class Conflict:
    """A reason two (or more) modes cannot be merged cleanly."""

    modes: Tuple[str, ...]
    reason: str

    def __str__(self) -> str:
        return f"[{', '.join(self.modes)}] {self.reason}"


@dataclass
class StepReport:
    """What one merge step did."""

    name: str
    added: List[Constraint] = field(default_factory=list)
    dropped: List[Tuple[str, Constraint]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    conflicts: List[Conflict] = field(default_factory=list)

    def add(self, constraint: Constraint) -> Constraint:
        self.added.append(constraint)
        return constraint

    def drop(self, mode_name: str, constraint: Constraint) -> None:
        self.dropped.append((mode_name, constraint))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def conflict(self, modes: Tuple[str, ...], reason: str) -> None:
        self.conflicts.append(Conflict(modes, reason))

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
        #: case-analysis constraints dropped in step 3.1.4 (mode, constraint)
        self.dropped_cases: List[Tuple[str, Constraint]] = []
        #: lineage of every merged-mode constraint (source modes + rule)
        self.provenance = ProvenanceLedger()
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

    def report(self, name: str) -> StepReport:
        report = StepReport(name)
        self.reports.append(report)
        return report

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
