"""Mergeability analysis and merge-group selection (paper Section 3,
Figure 2).

Which modes can merge?  A *mock run of preliminary mode merging* per mode
pair detects the disqualifiers the paper lists: constraints with
incompatible values (out-of-tolerance clock/drive/load constraints,
non-recoverable exceptions) and clock unions that would *block* one mode's
clocking (a register clocked in an individual mode losing that clock in
the merged mode).  Mergeable pairs form the **mergeability graph**; merge
groups are its cliques, found greedily ("as the number of modes is
small").

Most pairs never reach the mock merge: per-mode tables
(:class:`ModeTable`) feed the three conflicting Section 3.1 rules the
steps themselves run, and a conflict found there is the mock merge's
first conflict (:func:`table_conflict`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.case_analysis import merge_case_analysis
from repro.core.clock_constraints import (
    clock_constraint_verdicts,
    merge_clock_constraints,
)
from repro.core.clock_groups import merge_clock_exclusivity
from repro.core.clock_refinement import refine_clock_network
from repro.core.clock_union import clock_signatures, merge_clocks, union_clocks
from repro.core.disable_timing import merge_disable_timing
from repro.core.drive_load import drive_load_verdicts, merge_drive_load
from repro.core.exceptions_merge import exception_verdicts, merge_exceptions
from repro.core.external_delays import merge_external_delays
from repro.core.merger import MergeOptions, MergeResult, merge_modes
from repro.core.steps import Conflict, MergeContext, Row, first_conflict
from repro.diagnostics import (
    DegradationPolicy,
    Diagnostic,
    DiagnosticCollector,
    Severity,
)
from repro.errors import BudgetExceededError, MergeStepError
from repro.exec.supervisor import Supervisor, SupervisorConfig
from repro.netlist.netlist import Netlist
from repro.obs.context import current, observing
from repro.obs.explain import group_subject, pair_subject
from repro.sdc.commands import (
    CLOCK_ATTACHED_TYPES,
    DRIVE_LOAD_TYPES,
    SetPropagatedClock,
)
from repro.sdc.mode import Mode


def _preliminary_merge(netlist: Netlist, modes: Sequence[Mode],
                       options: MergeOptions) -> MergeContext:
    """Run only the Section 3.1 steps (the paper's "mock run")."""
    context = MergeContext(netlist, list(modes))
    merge_clocks(context)
    merge_clock_constraints(context, options.tolerance)
    merge_external_delays(context)
    merge_case_analysis(context)
    merge_disable_timing(context)
    merge_drive_load(context, options.tolerance)
    merge_clock_exclusivity(context)
    refine_clock_network(context)
    merge_exceptions(context)
    return context


#: Step 3.1.8's code object: a mock merge that raised inside it is
#: reported as a clock refinement failure.
_REFINEMENT_CODE = refine_clock_network.__code__


def _failed_stage(exc: BaseException) -> str:
    """The stage a pair verdict names for ``exc``: clock refinement when
    step 3.1.8, which binds the modes to the design, raised it, else the
    preliminary merge."""
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is _REFINEMENT_CODE:
            return "clock refinement"
        tb = tb.tb_next
    return "preliminary merge"


class ModeTable:
    """One mode's rows for the mergeability pre-check.

    Built once per mode per scan: the clock signatures from which each
    pair's clock maps follow, and the clock-attached, drive/load and
    exception constraints with their identity keys.  These are all that
    the three Section 3.1 rules that can conflict (3.1.2, 3.1.6, 3.1.9)
    read from a mode.
    """

    def __init__(self, netlist: Netlist, mode: Mode):
        self.name = mode.name
        self.clock_names = mode.clock_names()
        self.signatures = clock_signatures(netlist, mode)
        self.clock_rows = self._rows(
            mode.of_type(*CLOCK_ATTACHED_TYPES, SetPropagatedClock))
        self.drive_load_rows = self._rows(mode.of_type(*DRIVE_LOAD_TYPES))
        self.exception_rows = self._rows(mode.exceptions())

    def _rows(self, constraints) -> List[Row]:
        return [(self.name, c, c.key()) for c in constraints]

    def mapped(self, rows: List[Row], mapping: Dict[str, str]) -> List[Row]:
        """``rows`` with clock names rewritten through ``mapping``.

        A mapping that renames nothing leaves every row, key included,
        as it is.
        """
        if all(old == new for old, new in mapping.items()):
            return rows
        out = []
        for name, constraint, _key in rows:
            mapped = constraint.rename_clocks(mapping)
            out.append((name, mapped, mapped.key()))
        return out


def table_conflict(tables: Sequence[ModeTable],
                   tolerance: float) -> Optional[Conflict]:
    """The first conflict the preliminary merge of the tables' modes
    would record, or None.

    The clock maps come from :func:`union_clocks` as in step 3.1.1, and
    the rules of steps 3.1.2, 3.1.6 and 3.1.9 run in step order on the
    same rows their steps build, so the conflict is the mock merge's
    first one.  The other steps never record a conflict.
    """
    names = tuple(table.name for table in tables)
    clock_maps: Dict[str, Dict[str, str]] = {name: {} for name in names}
    union_clocks([(t.name, t.signatures) for t in tables], clock_maps)
    mode_clocks = {t.name: {clock_maps[t.name].get(n, n)
                            for n in t.clock_names} for t in tables}
    conflict = first_conflict(clock_constraint_verdicts(
        names, [row for t in tables
                for row in t.mapped(t.clock_rows, clock_maps[t.name])],
        mode_clocks, tolerance))
    if conflict is None:
        conflict = first_conflict(drive_load_verdicts(
            names, [row for t in tables for row in t.drive_load_rows],
            tolerance))
    if conflict is None:
        conflict = first_conflict(exception_verdicts(
            names, [row for t in tables
                    for row in t.mapped(t.exception_rows,
                                        clock_maps[t.name])],
            mode_clocks))
    return conflict


def clock_blocking_reason(context: MergeContext) -> Optional[str]:
    """Detect clocks that get blocked by the union (non-mergeable signal).

    For every register clocked by clock ``c`` in an individual mode, the
    merged mode must clock it with ``map(c)``; otherwise merging the clock
    trees of the modes has blocked one mode's clocking.
    """
    merged_prop = context.bind_merged().clock_propagation()
    for mode, bound in zip(context.modes, context.bound_individuals()):
        mapping = context.clock_maps[mode.name]
        prop = bound.clock_propagation()
        for inst_name, clocks in prop.register_clocks.items():
            merged_clocks = merged_prop.register_clocks.get(inst_name, set())
            for clock_name in clocks:
                mapped = mapping.get(clock_name, clock_name)
                if mapped not in merged_clocks:
                    return (f"clock {clock_name} of mode {mode.name} is "
                            f"blocked from register {inst_name} in the "
                            f"merged mode")
    return None


def pair_mergeable(netlist: Netlist, mode_a: Mode, mode_b: Mode,
                   options: Optional[MergeOptions] = None,
                   tables: Optional[Tuple[ModeTable, ModeTable]] = None
                   ) -> Tuple[bool, str]:
    """Decide whether two modes can merge; (mergeable?, reason when not).

    The modes' tables (``tables``, built here when not given) decide
    first: a pair they reject gets exactly the reason the mock merge
    would give, without a :class:`MergeContext` -- this is what keeps the
    O(modes^2) scan fast on mode-rich designs like the paper's design A
    (95 modes, 4465 pairs).  The pairs left are mock-merged and checked
    for blocked clocks.  A table that cannot be built or read leaves its
    pairs to the mock merge, which raises the same way and names it.
    """
    opts = options or MergeOptions()
    # Mock merges must not pollute the decision ledger: the scan's own
    # pair verdicts are the queryable record, and the serial and pooled
    # paths must produce identical ledgers.
    with observing(decisions=None) as obs:
        try:
            if tables is None:
                tables = (ModeTable(netlist, mode_a),
                          ModeTable(netlist, mode_b))
            conflict = table_conflict(tables, opts.tolerance)
        except Exception:
            conflict = None
        if conflict is not None:
            return False, str(conflict)
        if obs.metrics.enabled:
            obs.metrics.inc("profile.mock_merges")
        try:
            context = _preliminary_merge(netlist, [mode_a, mode_b], opts)
        except Exception as exc:  # malformed constraints etc.
            return False, f"{_failed_stage(exc)} failed: {exc}"
        conflicts = context.all_conflicts()
        if conflicts:
            return False, str(conflicts[0])
        blocked = clock_blocking_reason(context)
        if blocked:
            return False, blocked
    return True, ""


@dataclass
class MergeabilityAnalysis:
    """The mergeability graph and the merge groups chosen from it."""

    graph: nx.Graph
    groups: List[List[str]]
    reasons: Dict[FrozenSet[str], str] = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def mergeable(self, mode_a: str, mode_b: str) -> bool:
        return self.graph.has_edge(mode_a, mode_b)

    def reason(self, mode_a: str, mode_b: str) -> str:
        return self.reasons.get(frozenset((mode_a, mode_b)), "")

    def summary(self) -> str:
        lines = [
            f"mergeability graph: {self.graph.number_of_nodes()} modes, "
            f"{self.graph.number_of_edges()} mergeable pairs",
            f"merge groups: "
            + ", ".join("{" + ", ".join(g) + "}" for g in self.groups),
        ]
        return "\n".join(lines)


# Worker state for the parallel pairwise scan (fork-inherited).
_POOL_STATE: dict = {}


def _pool_init(netlist, modes, tables, options) -> None:
    _POOL_STATE["netlist"] = netlist
    _POOL_STATE["modes"] = modes
    _POOL_STATE["tables"] = tables
    _POOL_STATE["options"] = options


def _pool_check(pair):
    i, j = pair
    modes, tables = _POOL_STATE["modes"], _POOL_STATE["tables"]
    ok, reason = pair_mergeable(_POOL_STATE["netlist"], modes[i], modes[j],
                                _POOL_STATE["options"],
                                (tables[i], tables[j]))
    return i, j, ok, reason


def _mode_tables(netlist: Netlist, modes: Sequence[Mode],
                 pairs: Sequence[Tuple[int, int]]) -> List[Optional[ModeTable]]:
    """The table of every mode in ``pairs`` (None where it cannot be built,
    or where no pair needs it)."""
    tables: List[Optional[ModeTable]] = [None] * len(modes)
    for index in sorted({i for pair in pairs for i in pair}):
        try:
            tables[index] = ModeTable(netlist, modes[index])
        except Exception:
            pass  # its pairs go to the mock merge, which names the error
    return tables


def _engine_config(options: MergeOptions, jobs: int,
                   propagate: bool) -> SupervisorConfig:
    """The supervisor tuning one mergeability/merge batch runs under.

    The per-task deadline is ``exec_deadline_seconds`` when set;
    otherwise it derives from the watchdog budget — a group merge is
    bounded by ``budget_seconds``, so a pooled worker that has run for
    twice that (plus slack) is hung, not slow.  With neither set, tasks
    have no deadline (crash containment and retry still apply).
    """
    deadline = options.exec_deadline_seconds
    if deadline is None and options.budget_seconds:
        deadline = 2.0 * options.budget_seconds + 1.0
    return SupervisorConfig(jobs=jobs, deadline_seconds=deadline,
                            max_attempts=options.exec_max_attempts,
                            propagate_errors=propagate)


def _scan_payload_error(value) -> str:
    """Reject malformed pairwise-scan results (corrupt-payload guard)."""
    if (isinstance(value, tuple) and len(value) == 4
            and isinstance(value[2], bool)):
        return ""
    return f"malformed scan payload {value!r}"


def build_mergeability_graph(netlist: Netlist, modes: Sequence[Mode],
                             options: Optional[MergeOptions] = None,
                             jobs: int = 1,
                             collector: Optional[DiagnosticCollector] = None,
                             cache=None) -> MergeabilityAnalysis:
    """Pairwise verdicts -> mergeability graph -> greedy clique groups.

    The :class:`ModeTable` of every mode with a pair to decide is built
    once, and each pair is decided by :func:`pair_mergeable` on its two
    tables.

    ``jobs > 1`` distributes the O(#modes^2) pair checks over the
    supervised execution engine (the paper ran its engine on 4 cores):
    a hung, crashed, or corrupted pair check is retried and, as a last
    resort, the pair is conservatively recorded non-mergeable with an
    ``EXE`` diagnostic — a pool failure can no longer crash the scan.
    Falls back to serial on platforms without ``fork``.  Results are
    flushed in submission order, so the graph (and everything downstream)
    is identical at any job count.

    ``cache`` (a :class:`~repro.cache.ResultCache`) memoizes per-pair
    verdicts by content fingerprint: pairs with a verified entry are not
    checked at all (``cache.pair_hits``), and only pairs that were
    checked count into ``mergeability.pairs_scanned`` — editing
    one mode re-scans only its own pairs.  Engine-failure fallbacks are
    never cached (they describe the run, not the content).
    """
    start = time.perf_counter()
    obs = current()
    tracer, metrics, ledger = obs.tracer, obs.metrics, obs.decisions
    graph = nx.Graph()
    reasons: Dict[FrozenSet[str], str] = {}
    for mode in modes:
        graph.add_node(mode.name)
    mode_list = list(modes)
    pairs = [(i, j) for i in range(len(mode_list))
             for j in range(i + 1, len(mode_list))]

    with tracer.span("mergeability", modes=[m.name for m in mode_list],
                     pairs=len(pairs), jobs=jobs), \
            ledger.frame("mergeability.scan",
                         f"scan:{len(mode_list)} modes",
                         modes=[m.name for m in mode_list]):
        cached: Dict[Tuple[int, int], Tuple[bool, str]] = {}
        pair_keys: Dict[Tuple[int, int], str] = {}
        pair_labels: Dict[Tuple[int, int], str] = {}
        if cache is not None and cache.enabled and pairs:
            from repro.cache import mode_fingerprint

            space = cache.space(netlist, options or MergeOptions())
            fingerprints = [mode_fingerprint(m) for m in mode_list]
            items = []
            for i, j in pairs:
                pair_keys[(i, j)] = cache.pair_key(
                    space, fingerprints[i], fingerprints[j])
                pair_labels[(i, j)] = pair_subject(
                    mode_list[i].name, mode_list[j].name)
                items.append((pair_keys[(i, j)], pair_labels[(i, j)]))
            for pair, payload in zip(pairs, cache.lookup_pairs(items)):
                if payload is not None:
                    cached[pair] = payload
        pending = [pair for pair in pairs if pair not in cached]

        computed: Dict[Tuple[int, int], Tuple[int, int, bool, str]] = {}
        fresh: List[Tuple[str, str, bool, str]] = []
        if pending:
            supervisor = Supervisor(
                _engine_config(options or MergeOptions(), jobs,
                               propagate=False),
                collector=collector)
            keys = ["scan:" + "+".join(sorted((mode_list[i].name,
                                               mode_list[j].name)))
                    for i, j in pending]
            tables = _mode_tables(netlist, mode_list, pending)
            if jobs > 1:
                check, setup = _pool_check, dict(
                    initializer=_pool_init,
                    initargs=(netlist, mode_list, tables, options))
            else:
                # In process: no module state outlives the scan.
                def check(pair):
                    i, j = pair
                    ok, reason = pair_mergeable(
                        netlist, mode_list[i], mode_list[j], options,
                        (tables[i], tables[j]))
                    return i, j, ok, reason

                setup = {}
            outcomes = supervisor.run(
                check, [(pair,) for pair in pending], keys=keys,
                validate=_scan_payload_error, label="mergeability.scan",
                **setup)
            for outcome, (i, j) in zip(outcomes, pending):
                if outcome.ok:
                    computed[(i, j)] = tuple(outcome.value)
                    if (i, j) in pair_keys:
                        fresh.append((pair_keys[(i, j)],
                                      pair_labels[(i, j)],
                                      outcome.value[2],
                                      outcome.value[3]))
                else:
                    # An engine failure must never escape the scan: an
                    # unanswerable pair is conservatively non-mergeable.
                    computed[(i, j)] = (i, j, False,
                                        f"mergeability check failed: "
                                        f"{outcome.error}")
        metrics.inc("mergeability.pairs_scanned", len(pending))
        if fresh and cache is not None:
            cache.store_pairs(fresh)

        results = [(i, j) + tuple(cached[(i, j)])
                   if (i, j) in cached else computed[(i, j)]
                   for i, j in pairs]
        for i, j, ok, reason in results:
            name_i, name_j = mode_list[i].name, mode_list[j].name
            if ok:
                graph.add_edge(name_i, name_j)
            else:
                reasons[frozenset((name_i, name_j))] = reason
            if ledger.enabled:
                ledger.decide(
                    "mergeability.pair", pair_subject(name_i, name_j),
                    verdict="mergeable" if ok else "rejected",
                    evidence=[reason] if reason else [],
                    modes=[name_i, name_j])
        with tracer.span("clique_cover"):
            groups = greedy_clique_cover(graph)
        if ledger.enabled:
            for group in groups:
                members = list(group)
                edges = sum(
                    1 for a in members for b in members
                    if a < b and graph.has_edge(a, b))
                ledger.decide(
                    "mergeability.group", group_subject(members),
                    verdict="assigned",
                    evidence=[f"clique of {len(members)} mode(s) with "
                              f"{edges} mergeable pair(s)"],
                    modes=members)
        metrics.inc("mergeability.pairs_checked", len(pairs))
        metrics.inc("mergeability.pairs_mergeable",
                    graph.number_of_edges())
        metrics.inc("mergeability.groups", len(groups))
        if tracer.enabled:
            tracer.annotate(mergeable_pairs=graph.number_of_edges(),
                            groups=len(groups))
    return MergeabilityAnalysis(
        graph=graph,
        groups=groups,
        reasons=reasons,
        runtime_seconds=time.perf_counter() - start,
    )


def greedy_clique_cover(graph: nx.Graph) -> List[List[str]]:
    """Cover the graph's vertices with cliques, greedily.

    Repeatedly seed a clique at the highest-degree unassigned vertex and
    grow it with the candidate that keeps the most common neighbours —
    the paper's "greedy algorithm as the number of modes is small".
    """
    remaining: Set[str] = set(graph.nodes)
    cliques: List[List[str]] = []
    while remaining:
        seed = max(sorted(remaining),
                   key=lambda v: sum(1 for u in graph.neighbors(v)
                                     if u in remaining))
        clique = [seed]
        candidates = {u for u in graph.neighbors(seed) if u in remaining}
        while candidates:
            best = max(sorted(candidates), key=lambda v: sum(
                1 for u in graph.neighbors(v) if u in candidates))
            clique.append(best)
            candidates &= set(graph.neighbors(best))
            candidates.discard(best)
        cliques.append(sorted(clique))
        remaining -= set(clique)
    cliques.sort(key=lambda c: (-len(c), c))
    return cliques


@dataclass
class GroupOutcome:
    """Result of merging one clique of modes."""

    mode_names: List[str]
    result: Optional[MergeResult] = None
    error: str = ""
    #: the sign-off guard changed something to produce this outcome
    repaired: bool = False
    #: this outcome was replayed from the result cache, not recomputed
    restored: bool = False

    @property
    def merged(self) -> bool:
        return self.result is not None and len(self.mode_names) > 1


@dataclass
class MergingRun:
    """Full design-level run: analysis plus one merge per group."""

    analysis: MergeabilityAnalysis
    outcomes: List[GroupOutcome] = field(default_factory=list)
    runtime_seconds: float = 0.0
    #: structured findings recorded while running under a recovery policy
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: the run's slice of the context's decision ledger (empty unless a
    #: :class:`~repro.obs.explain.DecisionLedger` was installed); query
    #: with :func:`repro.obs.explain.explain`
    decision_records: List = field(default_factory=list)

    @property
    def failed_outcomes(self) -> List[GroupOutcome]:
        """Groups that produced no merged mode (reason in ``.error``)."""
        return [o for o in self.outcomes if o.result is None]

    @property
    def repaired_count(self) -> int:
        """Outcomes the sign-off guard had to repair."""
        return sum(1 for o in self.outcomes if o.repaired)

    @property
    def restored_count(self) -> int:
        """Outcomes replayed from the result cache."""
        return sum(1 for o in self.outcomes if o.restored)

    @property
    def individual_count(self) -> int:
        return sum(len(o.mode_names) for o in self.outcomes)

    @property
    def merged_count(self) -> int:
        return len(self.outcomes)

    @property
    def reduction_percent(self) -> float:
        n = self.individual_count
        if n == 0:
            return 0.0
        return 100.0 * (n - self.merged_count) / n

    def merged_modes(self) -> List[Mode]:
        """The final mode list: merged supersets plus untouched singles."""
        modes: List[Mode] = []
        for outcome in self.outcomes:
            if outcome.result is not None:
                modes.append(outcome.result.merged)
        return modes

    def to_dict(self) -> dict:
        """JSON-serializable record of the whole run."""
        return {
            "individual_modes": self.individual_count,
            "merged_modes": self.merged_count,
            "reduction_percent": round(self.reduction_percent, 3),
            "runtime_seconds": round(self.runtime_seconds, 6),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "groups": [
                {
                    "modes": list(outcome.mode_names),
                    "merged": outcome.merged,
                    "error": outcome.error,
                    "repaired": outcome.repaired,
                    "restored": outcome.restored,
                    "result": outcome.result.to_dict()
                    if outcome.result else None,
                }
                for outcome in self.outcomes
            ],
            "mergeable_pairs": self.analysis.graph.number_of_edges(),
            "non_mergeable_reasons": {
                "|".join(sorted(pair)): reason
                for pair, reason in self.analysis.reasons.items()
            },
            "decisions": [d.to_dict() for d in self.decision_records],
        }

    def explain(self, query: str):
        """Causal chains for the run's decisions matching ``query``.

        Convenience wrapper over :func:`repro.obs.explain.explain`;
        empty unless the run executed under an installed
        :class:`~repro.obs.explain.DecisionLedger`.
        """
        from repro.obs.explain import explain as _explain

        return _explain(self.decision_records, query)

    def summary(self) -> str:
        lines = [self.analysis.summary()]
        lines.append(
            f"modes: {self.individual_count} -> {self.merged_count} "
            f"({self.reduction_percent:.1f}% reduction) in "
            f"{self.runtime_seconds:.2f}s")
        for outcome in self.outcomes:
            if outcome.merged:
                lines.append(f"  merged {{{', '.join(outcome.mode_names)}}}")
            elif outcome.error:
                lines.append(f"  kept individual {outcome.mode_names} "
                             f"({outcome.error})")
        if self.diagnostics:
            lines.append(f"  {len(self.diagnostics)} diagnostics recorded "
                         f"(see run.diagnostics)")
        return "\n".join(lines)


# Worker state for parallel group merges (fork-inherited).
_GROUP_STATE: dict = {}


def _group_init(netlist, by_name, options) -> None:
    _GROUP_STATE["netlist"] = netlist
    _GROUP_STATE["by_name"] = by_name
    _GROUP_STATE["options"] = options


def _group_task(names):
    """Merge one analysis group inside a forked worker.

    Runs the same :func:`run_merge_group` the serial path uses and ships
    the outcomes home as plain data: the cache's group records, whose
    SDC round-trip is proven byte-identical, and the diagnostics.  The
    supervisor carries the worker's spans, metrics and decisions itself.
    """
    from repro.cache import serialize_outcome

    sink = DiagnosticCollector()
    outcomes = run_merge_group(
        _GROUP_STATE["netlist"], _GROUP_STATE["by_name"], list(names),
        _GROUP_STATE["options"], sink)
    return {
        "outcomes": [serialize_outcome(o) for o in outcomes],
        "diagnostics": [d.to_dict() for d in sink.diagnostics],
    }


def _group_payload_error(value) -> str:
    """Reject malformed worker bundles (corrupt-payload guard)."""
    if isinstance(value, dict) and "outcomes" in value:
        return ""
    return f"malformed group-merge payload of type {type(value).__name__}"


def _direct_payload_error(value) -> str:
    if isinstance(value, list):
        return ""
    return f"malformed group-merge payload of type {type(value).__name__}"


def run_merge_group(netlist: Netlist, by_name: Dict[str, Mode],
                    names: List[str], options: MergeOptions,
                    sink: DiagnosticCollector) -> List[GroupOutcome]:
    """Merge one analysis group with the full recovery ladder.

    This is the unit of work the execution engine schedules: it opens
    the group's trace span and ``merge.group`` decision frame itself, so
    a group merged in a forked worker records exactly the decision shape
    a serially merged group does.  ``options`` is the already-coerced
    per-group tunables (``strict=False``); the ladder is unchanged from
    the historical in-line closures: merge -> sign-off guard -> demote
    the single culprit -> degrade a budget-blown group whole -> bisect.
    Every input mode ends in exactly one returned outcome.
    """
    policy = DegradationPolicy.coerce(options.policy)
    obs = current()
    ledger = obs.decisions
    outcomes: List[GroupOutcome] = []

    def try_merge(group_names: List[str]) -> MergeResult:
        group_modes = [by_name[n] for n in group_names]
        name = group_names[0] if len(group_names) == 1 else None
        return merge_modes(netlist, group_modes, name=name,
                           options=options)

    def guard_group(group_names: List[str], failed: MergeResult) -> bool:
        """Sign-off guard hook; True when it produced final outcomes."""
        from repro.core.signoff import SignoffGuard

        guard = SignoffGuard(netlist, [by_name[n] for n in group_names],
                             options, sink)
        repaired = guard.repair_group(group_names, failed)
        if repaired is None:
            return False
        for outcome in repaired:
            outcomes.append(GroupOutcome(
                outcome.mode_names, outcome.result, error=outcome.error,
                repaired=outcome.repaired))
        return True

    def merge_group(group_names: List[str]) -> None:
        try:
            result = try_merge(group_names)
        except Exception as exc:
            if policy is DegradationPolicy.STRICT:
                raise
            recover_group(group_names, exc)
            return
        if len(group_names) == 1 or result.ok:
            outcomes.append(GroupOutcome(group_names, result))
            return
        if options.signoff_guard and guard_group(group_names, result):
            return
        half = len(group_names) // 2
        merge_group(group_names[:half])
        merge_group(group_names[half:])

    def budget_exceeded(exc: BaseException) -> Optional[BudgetExceededError]:
        if isinstance(exc, BudgetExceededError):
            return exc
        if isinstance(exc, MergeStepError) \
                and isinstance(exc.cause, BudgetExceededError):
            return exc.cause
        return None

    def recover_group(group_names: List[str], exc: BaseException) -> None:
        """Demote the offending mode(s) instead of aborting the run."""
        reason = str(exc)
        if len(group_names) == 1:
            # An individual mode whose (re)construction fails: keep the
            # failure as a structured outcome, never an exception.
            sink.capture(exc, source=group_names[0])
            outcomes.append(GroupOutcome(group_names, None, error=reason))
            return
        budget_exc = budget_exceeded(exc)
        if budget_exc is not None:
            # Retrying a budget-blown merge once per member would cost
            # up to N more full budgets; degrade the group wholesale.
            sink.report(
                "SGN006",
                f"group {{{', '.join(group_names)}}} exceeded its "
                f"{budget_exc.kind} budget ({budget_exc}); keeping its "
                f"modes individual",
                severity=Severity.WARNING, source="+".join(group_names))
            ledger.decide(
                "merge.budget", group_subject(group_names),
                verdict="degraded",
                evidence=[f"{budget_exc.kind} budget exceeded: "
                          f"{budget_exc}"],
                modes=group_names, budget_kind=budget_exc.kind)
            for name in group_names:
                merge_group([name])
            return
        for i, culprit in enumerate(group_names):
            survivors = group_names[:i] + group_names[i + 1:]
            try:
                try_merge(survivors)
            except Exception:
                continue
            sink.report(
                "MRG002",
                f"mode {culprit!r} demoted from group "
                f"{{{', '.join(group_names)}}}: {reason}",
                severity=Severity.WARNING, source=culprit)
            ledger.decide(
                "merge.demotion", f"mode:{culprit}",
                verdict="demoted",
                evidence=[f"group without {culprit!r} merges cleanly",
                          reason],
                modes=group_names, culprit=culprit)
            merge_group(survivors)
            merge_group([culprit])
            return
        # No single demotion rescues the group: bisect.
        sink.report(
            "MRG001",
            f"group {{{', '.join(group_names)}}} failed to merge "
            f"({reason}); bisecting",
            severity=Severity.WARNING)
        half = len(group_names) // 2
        merge_group(group_names[:half])
        merge_group(group_names[half:])

    with obs.tracer.span(f"group:{'+'.join(names)}", modes=names), \
            ledger.frame("merge.group", group_subject(names),
                         modes=names):
        merge_group(list(names))
    return outcomes


def merge_all(netlist: Netlist, modes: Sequence[Mode],
              options: Optional[MergeOptions] = None,
              analysis: Optional[MergeabilityAnalysis] = None,
              collector: Optional[DiagnosticCollector] = None,
              jobs: int = 1, cache=None) -> MergingRun:
    """The end-to-end flow: analyze mergeability, then merge every group.

    A group whose full merge fails (rare: pairwise mergeability is not
    transitive) is bisected until its sub-groups merge cleanly.

    Under a recovery policy (``options.policy`` LENIENT / PERMISSIVE) a
    merge step that *raises* no longer aborts the run: the offending
    mode is demoted from its group — mirroring the paper's mock-merge
    fallback of giving non-mergeable modes their own group — the
    survivors are re-merged, and a diagnostic is recorded.  A failed
    group never takes down sibling groups; the invariant is that every
    input mode ends in exactly one outcome, either merged or kept
    individual with a reason.

    With ``options.signoff_guard`` a group that merges but fails its
    equivalence validation is handed to the
    :class:`~repro.core.signoff.SignoffGuard`, which localizes the
    culprit mode/constraint and repairs the merge (``SGN`` diagnostics)
    before the plain bisection fallback runs.

    A group that exceeds its :class:`~repro.core.watchdog.WatchdogBudget`
    raises under STRICT and is *demoted whole* under a recovery policy —
    its modes are kept individual (``SGN006``) rather than retrying the
    expensive merge once per member.

    ``cache`` (a :class:`~repro.cache.ResultCache`) memoizes completed
    group merges keyed by mode content, and makes the run resumable:
    each group is stored as soon as it is flushed, and a group whose
    sorted mode fingerprints match a verified cache entry is restored
    (``restored=True``, ``CAC006``, decision kind ``cache.hit``)
    without recomputation.  Only cleanly-computed groups are stored;
    engine-failure demotions are never cached.

    ``jobs > 1`` distributes the independent group merges (and, when the
    analysis is built here, the pairwise scan) over the supervised
    execution engine: per-task deadlines, bounded retry, crash isolation
    and serial degradation, with results flushed strictly in analysis
    order — a parallel run's outcomes, SDC output and decision ledger
    are identical to a serial run's.  Under ``STRICT`` policy a task
    failure propagates (in-process with its original exception type,
    from a pooled worker as a
    :class:`~repro.errors.TaskFailedError`); under a recovery policy a
    group whose task fails even after retries is demoted to individual
    modes with ``EXE``/``MRG002`` diagnostics.
    """
    opts = options or MergeOptions()
    policy = DegradationPolicy.coerce(opts.policy)
    sink = collector if collector is not None else DiagnosticCollector()
    first_diag = len(sink)
    obs = current()
    tracer, metrics, ledger = obs.tracer, obs.metrics, obs.decisions
    # Mark before the analysis: pair/group verdicts recorded inside
    # build_mergeability_graph belong to this run's decision slice.
    first_dec = len(ledger.records) if ledger.enabled else 0
    start = time.perf_counter()
    if analysis is None:
        analysis = build_mergeability_graph(netlist, modes, opts,
                                            jobs=jobs, collector=sink,
                                            cache=cache)
    by_name = {mode.name: mode for mode in modes}
    run = MergingRun(analysis=analysis)

    group_opts = MergeOptions(
        tolerance=opts.tolerance,
        max_iterations=opts.max_iterations,
        strict=False,
        validate=opts.validate,
        policy=policy,
        budget_seconds=opts.budget_seconds,
        max_refinement_passes=opts.max_refinement_passes,
        max_clock_graph_nodes=opts.max_clock_graph_nodes,
        signoff_guard=opts.signoff_guard,
        max_repair_attempts=opts.max_repair_attempts,
        exec_deadline_seconds=opts.exec_deadline_seconds,
        exec_max_attempts=opts.exec_max_attempts,
    )

    from repro.cache import (
        mode_fingerprint,
        restore_diagnostics,
        restore_outcome,
        serialize_outcome,
    )

    with tracer.span("merge_all", groups=len(analysis.groups),
                     modes=len(list(modes))):
        # Plan every analysis group up front (cache lookups included),
        # then flush results strictly in analysis order — the cursor
        # only advances over a group whose work is done, so the
        # outcome/diagnostic/decision sequence is identical at any job
        # count and any completion order.
        use_cache = cache is not None and cache.enabled
        cache_space = ""
        mode_fps: Dict[str, str] = {}
        if use_cache:
            cache_space = cache.space(netlist, group_opts)
            mode_fps = {name: mode_fingerprint(mode)
                        for name, mode in by_name.items()}
        plans: List[dict] = []
        for group in analysis.groups:
            names = list(group)
            cache_key = ""
            entry = None
            if use_cache:
                cache_key = cache.group_key(
                    cache_space, [mode_fps[n] for n in names])
                entry = cache.lookup_group(
                    cache_key, group_subject(names), modes=names)
            plans.append({"names": names, "key": "+".join(names),
                          "cache_key": cache_key, "entry": entry,
                          "outcome": None, "done": False})
        pending = [plan for plan in plans if plan["entry"] is None]
        state = {"cursor": 0, "diag_cursor": len(sink.diagnostics)}

        def restore(plan: dict) -> None:
            """Replay a group from the result cache.

            The ``cache.hit`` decision was recorded at lookup time;
            here the restored outcomes get the group's frame/span shape
            plus a ``CAC006`` diagnostic.
            """
            names = plan["names"]
            entry = plan["entry"]
            with tracer.span(f"group:{'+'.join(names)}", modes=names), \
                    ledger.frame("merge.group", group_subject(names),
                                 modes=names):
                for stored in entry["outcomes"]:
                    run.outcomes.append(GroupOutcome(
                        *restore_outcome(stored), restored=True))
                sink.extend(restore_diagnostics(entry))
                sink.report(
                    "CAC006",
                    f"group {{{', '.join(names)}}} restored from the "
                    f"result cache",
                    severity=Severity.INFO, source=plan["key"])
                if tracer.enabled:
                    tracer.annotate(restored=True, cached=True)

        def demote(plan: dict, task_outcome) -> None:
            """A group whose engine task failed even after retries:
            demote it to individual modes instead of losing the run."""
            names = plan["names"]
            with tracer.span(f"group:{'+'.join(names)}", modes=names), \
                    ledger.frame("merge.group", group_subject(names),
                                 modes=names):
                sink.report(
                    "MRG002",
                    f"group {{{', '.join(names)}}} demoted to individual "
                    f"modes after an execution failure: "
                    f"{task_outcome.error}",
                    severity=Severity.WARNING, source=plan["key"])
                ledger.decide(
                    "merge.demotion", group_subject(names),
                    verdict="demoted", evidence=[task_outcome.error],
                    modes=names)
            for name in names:
                run.outcomes.extend(run_merge_group(
                    netlist, by_name, [name], group_opts, sink))

        def apply(plan: dict) -> None:
            task_outcome = plan["outcome"]
            names = plan["names"]
            if not task_outcome.ok:
                # An engine-failure demotion describes this run's
                # environment, not the modes' content: never cached.
                demote(plan, task_outcome)
                return
            if jobs > 1:
                # The worker's diagnostics are appended raw: it already
                # bridged them into its own observability, which the
                # supervisor has folded in; outcomes are rebuilt from
                # the group records.
                bundle = task_outcome.value
                sink.diagnostics.extend(
                    Diagnostic.from_dict(record)
                    for record in bundle["diagnostics"])
                for stored in bundle["outcomes"]:
                    run.outcomes.append(
                        GroupOutcome(*restore_outcome(stored)))
                if use_cache:
                    cache.store_group(
                        plan["cache_key"], group_subject(names),
                        bundle["outcomes"], bundle["diagnostics"])
                return
            produced = list(task_outcome.value)
            run.outcomes.extend(produced)
            if use_cache:
                cache.store_group(
                    plan["cache_key"], group_subject(names),
                    [serialize_outcome(o) for o in produced],
                    [d.to_dict() for d in
                     sink.diagnostics[state["diag_cursor"]:]])

        def flush() -> None:
            while state["cursor"] < len(plans):
                plan = plans[state["cursor"]]
                if plan["entry"] is not None:
                    restore(plan)
                elif plan["done"]:
                    apply(plan)
                else:
                    break
                state["cursor"] += 1
                state["diag_cursor"] = len(sink.diagnostics)

        flush()  # leading restored groups
        if pending:
            by_index = {i: plan for i, plan in enumerate(pending)}

            def on_result(task_outcome) -> None:
                plan = by_index[task_outcome.index]
                plan["outcome"] = task_outcome
                plan["done"] = True
                flush()

            supervisor = Supervisor(
                _engine_config(group_opts, jobs,
                               propagate=(policy
                                          is DegradationPolicy.STRICT)),
                collector=sink)
            keys = [f"group:{plan['key']}" for plan in pending]
            tasks = [(plan["names"],) for plan in pending]
            if jobs > 1:
                supervisor.run(
                    _group_task, tasks, keys=keys,
                    validate=_group_payload_error,
                    initializer=_group_init,
                    initargs=(netlist, by_name, group_opts),
                    label="merge.groups", on_result=on_result)
            else:
                def direct(names):
                    return run_merge_group(netlist, by_name, list(names),
                                           group_opts, sink)

                supervisor.run(
                    direct, tasks, keys=keys,
                    validate=_direct_payload_error,
                    label="merge.groups", on_result=on_result)
        flush()  # trailing restored groups
        if metrics.enabled:
            metrics.inc("merge.modes_in", run.individual_count)
            metrics.inc("merge.modes_out", run.merged_count)
            metrics.inc("merge.groups_merged",
                        sum(1 for o in run.outcomes if o.merged))
            metrics.set_gauge("merge.reduction_percent",
                              round(run.reduction_percent, 3))
    run.runtime_seconds = time.perf_counter() - start
    run.diagnostics = list(sink.diagnostics[first_diag:])
    if ledger.enabled:
        run.decision_records = list(ledger.records[first_dec:])
    return run
