"""Merged-mode refinement, second step: the 3-pass timing-relationship
comparison (paper Section 3.2, Tables 2-4).

Comparison semantics.  For every relationship key the *individual* side
keeps one state set per mode (in merged clock names); the *merged* side
has one state set.  A bundle of paths compares as:

* **Match (M)** — every per-mode set and the merged set are conclusive
  (at most one state), and the merged state equals the *effective* state:
  the strictest requirement over the modes that time the bundle (a path
  must be timed if any mode times it; false-in-every-mode means not
  timed).  This is why the paper's Table 3 row (rB/CP, rY/D) is a match:
  mode A false-paths it, mode B times it, so the merged mode must time it.
* **Mismatch (X)** — all sets conclusive but the merged state differs from
  the effective state.  A fix constraint is synthesized, validated against
  the individual rows it would match, and added to the merged mode.
* **Ambiguous (A)** — some set holds several states: the bundle mixes
  differently-constrained paths.  The key descends to the next pass:
  pass 1 bundles per endpoint, pass 2 per (startpoint, endpoint), pass 3
  splits recursively at divergence points with ``-through`` chains until
  every bundle is conclusive (single paths in the limit, so termination
  and exactness are guaranteed).

Fixes are re-validated globally by iterating the whole comparison until a
clean pass — the "in-built validation" the paper advertises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.steps import Conflict, MergeContext, StepReport
from repro.core.watchdog import WatchdogBudget
from repro.obs.context import current
from repro.obs.provenance import RULE_DERIVED
from repro.sdc.commands import (
    Constraint,
    EXCEPTION_TYPES,
    ObjectRef,
    PathSpec,
    SetFalsePath,
    SetMaxDelay,
    SetMinDelay,
    SetMulticyclePath,
)
from repro.sdc.mode import Mode
from repro.timing.graph import ARC_LAUNCH
from repro.timing.relationships import RelationshipExtractor
from repro.timing.states import RelState

StateSet = FrozenSet[RelState]
EMPTY: StateSet = frozenset()


# ---------------------------------------------------------------------------
# comparison primitives
# ---------------------------------------------------------------------------
def canon(states: StateSet) -> StateSet:
    """Not-timed and false-path are the same requirement: nothing to time."""
    return frozenset(s for s in states if not s.is_false)


def conclusive(states: StateSet) -> bool:
    """A bundle is conclusive when all its paths share one state.

    A mixed set like ``{FP, V}`` is *not* conclusive even though only one
    state is timed: it hides which paths are false — exactly the paper's
    "Ambiguous" trigger.
    """
    return len(states) <= 1


def effective_state(per_mode: Sequence[StateSet]) -> Optional[Optional[RelState]]:
    """Strictest requirement over modes; None result means "not timed".

    Returns ``False`` (the bool) when some mode's set is inconclusive —
    the caller must descend a pass.
    """
    singles: List[RelState] = []
    for states in per_mode:
        if not conclusive(states):
            return False  # inconclusive
        timed = canon(states)
        if timed:
            singles.append(next(iter(timed)))
    if not singles:
        return None
    return combine_strictest(singles)


def combine_strictest(states: Sequence[RelState]) -> RelState:
    """The tightest requirement among per-mode states of one path bundle.

    Single-cycle (no MCP) beats any multicycle relaxation; among
    multicycles the smallest multiplier wins.  A max-delay override only
    survives if every mode applies one (otherwise some mode requires the
    clock-based check); the smallest value wins.  Min-delay takes the
    largest value symmetrically.
    """
    mcp_setup = None
    if all(s.mcp_setup is not None for s in states):
        mcp_setup = min(s.mcp_setup for s in states)
    mcp_hold = None
    if all(s.mcp_hold is not None for s in states):
        mcp_hold = min(s.mcp_hold for s in states)
    max_delay = None
    if all(s.max_delay is not None for s in states):
        max_delay = min(s.max_delay for s in states)
    min_delay = None
    if all(s.min_delay is not None for s in states):
        min_delay = max(s.min_delay for s in states)
    return RelState(is_false=False, mcp_setup=mcp_setup, mcp_hold=mcp_hold,
                    max_delay=max_delay, min_delay=min_delay)


def classify(per_mode: Sequence[StateSet], merged: StateSet) -> str:
    """'M' match, 'X' mismatch, 'A' ambiguous."""
    if not conclusive(merged):
        return "A"
    target = effective_state(per_mode)
    if target is False:
        return "A"
    merged_timed = canon(merged)
    merged_state = next(iter(merged_timed)) if merged_timed else None
    if target is None and merged_state is None:
        return "M"
    if target is not None and merged_state is not None \
            and target == merged_state:
        return "M"
    return "X"


def states_label(states: StateSet) -> str:
    if not states:
        return "-"
    return ", ".join(s.label() for s in sorted(states, key=lambda s: s.sort_key()))


def individual_label(per_mode: Sequence[StateSet]) -> str:
    """Individual-side cell for the comparison tables.

    When every mode is conclusive the paper shows the *effective* state
    (Table 3's ``V`` for a path false in one mode and valid in another);
    otherwise the union of the observed states (``FP, V``)."""
    effective = effective_state(per_mode)
    if effective is False:
        union: StateSet = frozenset().union(*per_mode) if per_mode else EMPTY
        return states_label(union)
    if effective is None:
        return "FP" if any(per_mode) else "-"
    return effective.label()


# ---------------------------------------------------------------------------
# fix synthesis
# ---------------------------------------------------------------------------
def _obj_ref(name: str) -> ObjectRef:
    return ObjectRef.pins(name) if "/" in name else ObjectRef.ports(name)


def constraints_for_target(target: Optional[RelState], merged: StateSet,
                           spec: PathSpec) -> Optional[List[Constraint]]:
    """Constraints that move the merged bundle state to ``target``.

    Returns None when the merged state has components that cannot be
    removed by adding constraints (a superset violation upstream).
    """
    merged_timed = canon(merged)
    merged_state = next(iter(merged_timed)) if merged_timed else None
    if target is None:
        if merged_state is None:
            return []
        return [SetFalsePath(spec=spec)]
    if merged_state is None:
        return None  # merged does not time a required bundle
    fixes: List[Constraint] = []
    if target.mcp_setup is not None and merged_state.mcp_setup != target.mcp_setup:
        if merged_state.mcp_setup is not None:
            return None
        fixes.append(SetMulticyclePath(multiplier=target.mcp_setup,
                                       spec=spec, setup=True))
    if target.mcp_setup is None and merged_state.mcp_setup is not None:
        return None
    if target.mcp_hold is not None and merged_state.mcp_hold != target.mcp_hold:
        if merged_state.mcp_hold is not None:
            return None
        fixes.append(SetMulticyclePath(multiplier=target.mcp_hold,
                                       spec=spec, hold=True))
    if target.mcp_hold is None and merged_state.mcp_hold is not None:
        return None
    if target.max_delay is not None and merged_state.max_delay != target.max_delay:
        if merged_state.max_delay is not None \
                and merged_state.max_delay < target.max_delay:
            return None
        fixes.append(SetMaxDelay(value=target.max_delay, spec=spec))
    if target.max_delay is None and merged_state.max_delay is not None:
        return None
    if target.min_delay is not None and merged_state.min_delay != target.min_delay:
        if merged_state.min_delay is not None \
                and merged_state.min_delay > target.min_delay:
            return None
        fixes.append(SetMinDelay(value=target.min_delay, spec=spec))
    if target.min_delay is None and merged_state.min_delay is not None:
        return None
    return fixes


@dataclass
class ComparisonEntry:
    """One row of a pass-1/2/3 comparison table (Tables 2-4 layout)."""

    level: int
    endpoint: str
    launch: str
    capture: str
    individual: str
    merged: str
    result: str
    startpoint: str = "*"
    through: str = ""

    def as_row(self) -> Dict[str, str]:
        row = {
            "Start point": self.startpoint,
            "End point": self.endpoint,
            "Launch clock": self.launch,
            "Capture clock": self.capture,
            "Individual state": self.individual,
            "Merged state": self.merged,
            "Result": self.result,
        }
        if self.through:
            row["Through"] = self.through
        return row


@dataclass
class ThreePassOutcome:
    """Everything the 3-pass refinement produced."""

    residuals: List[str] = field(default_factory=list)
    iterations: int = 0
    pass1_entries: List[ComparisonEntry] = field(default_factory=list)
    pass2_entries: List[ComparisonEntry] = field(default_factory=list)
    pass3_entries: List[ComparisonEntry] = field(default_factory=list)
    #: the fix loop's step report; None for a checking refiner
    report: Optional[StepReport] = None

    @property
    def added(self) -> List[Constraint]:
        """The fix constraints, in the order the loop synthesized them."""
        return self.report.added if self.report is not None else []

    @property
    def clean(self) -> bool:
        return not self.residuals


class IndividualRows:
    """The individual modes' relationship rows of one merge group.

    Keys are in merged clock names.  The extractors walk one binding of
    the merged mode, the *structure*, so their rows align path for path
    with the merged mode's rows (paths the merged mode has but a mode
    kills contribute FALSE -- see :mod:`repro.timing.relationships`).
    The rows therefore depend only on the individual bindings and on the
    structure's liveness, clock network, register clocks, I/O delays and
    clock groups.  A path exception binds only into
    ``BoundMode.exceptions`` and changes none of these, so the rows stay
    exact while the merged mode grows by path exceptions alone
    (:meth:`describes`): across the fix loop's iterations, and into the
    equivalence validation that follows it.  Each query is computed once.
    """

    def __init__(self, context: MergeContext):
        self.graph = context.graph
        self.count = len(context.modes)
        #: the merged binding the extractors walk, and its mode's
        #: constraints when it was bound
        self.structure = context.bind_merged()
        self._merged = context.merged
        self._constraints = context.merged.constraints
        self.extractors = [
            RelationshipExtractor(bound, structure=self.structure,
                                  clock_map=context.clock_maps[mode.name])
            for mode, bound in zip(context.modes,
                                   context.bound_individuals())
        ]
        #: frozen: the aligned comparison cannot see these paths
        self.structural = self._structural_residuals(context)
        self._pass1: Optional[Dict] = None
        #: endpoint name -> that endpoint's pass-2 rows
        self._pass2: Dict[str, Dict] = {}
        #: (startpoint, endpoint, chain, edge filter) -> pass-3 rows
        self._through: Dict[Tuple, Dict] = {}

    def describes(self, merged: Mode) -> bool:
        """Do the rows still hold for ``merged``?

        True when ``merged`` is the mode the structure was bound from and
        every constraint it gained since is a path exception.
        """
        if merged is not self._merged:
            return False
        current = merged.constraints
        bound = len(self._constraints)
        return current[:bound] == self._constraints and all(
            isinstance(c, EXCEPTION_TYPES) for c in current[bound:])

    def _structural_residuals(self, context: MergeContext) -> List[str]:
        """The merged mode must reach at least what every mode reaches.

        The aligned extraction walks the merged structure, so a path alive
        in an individual mode but killed in the merged mode would silently
        drop out of the comparison.  The pipeline's own merges guarantee
        the superset by construction (cases are intersected, disables are
        intersected or constant-everywhere); this check protects the
        equivalence audit of arbitrary candidate modes.
        """
        structure = self.structure
        graph = self.graph
        residuals: List[str] = []
        for mode, bound in zip(context.modes, context.bound_individuals()):
            mapping = context.clock_maps[mode.name]
            for arc in graph.arcs:
                if bound.constants.arc_is_live(arc) \
                        and not structure.constants.arc_is_live(arc):
                    residuals.append(
                        f"merged mode kills arc "
                        f"{graph.name(arc.src)} -> {graph.name(arc.dst)} "
                        f"which is live in mode {mode.name}")
            own_prop = bound.clock_propagation()
            merged_prop = structure.clock_propagation()
            for inst, clocks in own_prop.register_clocks.items():
                merged_clocks = merged_prop.register_clocks.get(inst, set())
                for clock_name in clocks:
                    if mapping.get(clock_name, clock_name) \
                            not in merged_clocks:
                        residuals.append(
                            f"clock {clock_name} of mode {mode.name} does "
                            f"not reach register {inst} in the merged mode")
        return sorted(set(residuals))

    def endpoint_rows(self) -> Dict[Tuple[str, str, str], List[StateSet]]:
        """Pass 1: (endpoint, launch, capture) -> per-mode states."""
        if self._pass1 is not None:
            return self._pass1
        rows: Dict[Tuple[str, str, str], List[StateSet]] = {}
        for idx, extractor in enumerate(self.extractors):
            for (ep, lc, cc), states in \
                    extractor.endpoint_relationships().items():
                key = (self.graph.name(ep), lc, cc)
                bucket = rows.setdefault(key, [EMPTY] * self.count)
                bucket[idx] = bucket[idx] | states
        self._pass1 = rows
        return rows

    def pair_rows(self, endpoints: FrozenSet[str]
                  ) -> Dict[Tuple[str, str, str, str], List[StateSet]]:
        """Pass 2: (startpoint, endpoint, launch, capture) -> per-mode
        states, for the given endpoints.

        Memoized per endpoint: propagation for an endpoint set stays
        inside the union of the endpoints' backward cones, so an
        endpoint's rows are the same whichever set they were computed in,
        and only endpoints not seen before are propagated.
        """
        memo = self._pass2
        missing = [name for name in endpoints if name not in memo]
        if missing:
            for name in missing:
                memo[name] = {}
            ep_nodes = {self.graph.node(name) for name in missing}
            for idx, extractor in enumerate(self.extractors):
                for (sp, ep, lc, cc), states in \
                        extractor.pair_relationships(ep_nodes).items():
                    ep_name = self.graph.name(ep)
                    bucket = memo[ep_name].setdefault(
                        (self.graph.name(sp), ep_name, lc, cc),
                        [EMPTY] * self.count)
                    bucket[idx] = bucket[idx] | states
        rows: Dict[Tuple[str, str, str, str], List[StateSet]] = {}
        for name in endpoints:
            rows.update(memo[name])
        return rows

    def through_rows(self, sp: int, ep: int, chain: Tuple[int, ...],
                     edge: Optional[str] = None
                     ) -> Dict[Tuple[str, str], List[StateSet]]:
        """Pass 3: (launch, capture) -> per-mode states of the paths
        sp -> ... chain ... -> ep, optionally of one endpoint data edge."""
        key = (sp, ep, chain, edge)
        rows = self._through.get(key)
        if rows is not None:
            return rows
        rows = {}
        for idx, extractor in enumerate(self.extractors):
            for lc_cc, states in extractor.through_states(
                    sp, ep, chain, edge_filter=edge).items():
                bucket = rows.setdefault(lc_cc, [EMPTY] * self.count)
                bucket[idx] = bucket[idx] | states
        self._through[key] = rows
        return rows


#: Fix-loop iterations before the refiner gives up on convergence.  A
#: checking refiner adds no fix, so it always stops after one.
MAX_ITERATIONS = 8

#: Longest pass-3 ``-through`` chain tried before a bundle is left as a
#: residual.
MAX_CHAIN_DEPTH = 48


class ThreePassRefiner:
    """Drives the 3-pass comparison and fix loop for one merge context."""

    def __init__(self, context: MergeContext, apply_fixes: bool = True,
                 budget: Optional[WatchdogBudget] = None):
        self.context = context
        self.graph = context.graph
        #: watchdog wall-clock limit; None = unbounded
        self.budget = budget
        #: with apply_fixes=False the refiner only *checks* (equivalence
        #: mode): mismatches become residuals instead of fix constraints.
        self.apply_fixes = apply_fixes
        #: the fix loop's step report, which records each fix and each
        #: residual; a checking refiner reports only its outcome
        self.report: Optional[StepReport] = None
        if apply_fixes:
            self.report = context.report("3-pass refinement (3.2b)",
                                         "three_pass")
        self.outcome = ThreePassOutcome(report=self.report)
        # A checking refiner adopts the rows a fix loop left on the
        # context while they still hold; the merged side is recomputed
        # from the final merged mode in every iteration either way.
        rows = context.individual_rows
        #: the individual-mode rows came from an earlier refiner
        self.rows_reused = (not apply_fixes and rows is not None
                            and rows.describes(context.merged))
        if not self.rows_reused:
            rows = context.individual_rows = IndividualRows(context)
        self._rows: IndividualRows = rows

    # ------------------------------------------------------------------
    # fix validation
    # ------------------------------------------------------------------
    def _validate(self, target: Optional[RelState], rows, matcher) -> bool:
        """A fix is sound iff every individual row it matches already has
        exactly the target as its effective state."""
        target_canon = frozenset() if target is None else frozenset([target])
        for key, per_mode in rows.items():
            if not matcher(key):
                continue
            eff = effective_state(per_mode)
            if eff is False:
                return False
            eff_canon = frozenset() if eff is None else frozenset([eff])
            if eff_canon != target_canon:
                return False
        return True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> ThreePassOutcome:
        structural = self._rows.structural
        collect = True
        for iteration in range(MAX_ITERATIONS):
            if self.budget is not None:
                self.budget.check_time("three_pass")
            self.outcome.iterations = iteration + 1
            added_before = len(self.outcome.added)
            self.outcome.residuals = list(structural)
            self._iterate(collect)
            collect = False  # tables reflect the first (paper-like) pass
            if len(self.outcome.added) == added_before:
                break
        if self.report is not None:
            # An iteration that added fixes is compared again, so only
            # the last iteration's residuals stand.
            modes = self.context.mode_names()
            detail = (f"after {self.outcome.iterations} iteration(s) with "
                      f"{len(self.outcome.added)} fix(es)")
            for residual in self.outcome.residuals:
                self.report.record(
                    "unresolved", None, RULE_DERIVED, modes, detail,
                    conflicts=[Conflict(modes, residual)],
                    kind="refinement.residual",
                    subject=f"residual:{residual}")
        return self.outcome


    def _iterate(self, collect: bool) -> None:
        context = self.context
        obs = current()
        tracer, metrics = obs.tracer, obs.metrics
        merged_bound = context.bind_merged()
        merged_ex = RelationshipExtractor(merged_bound)

        # ---------------- pass 1 ----------------
        mode_count = self._rows.count
        ambiguous_pass2: List[Tuple[str, str, str]] = []
        with tracer.span("three_pass:pass1") as span:
            ind_rows = self._rows.endpoint_rows()
            merged_rows: Dict[Tuple[str, str, str], StateSet] = {}
            for (ep, lc, cc), states in \
                    merged_ex.endpoint_relationships().items():
                merged_rows[self.graph.name(ep), lc, cc] = states

            all_keys = set(ind_rows) | set(merged_rows)
            for key in sorted(all_keys):
                per_mode = ind_rows.get(key, [EMPTY] * mode_count)
                merged = merged_rows.get(key, EMPTY)
                verdict = classify(per_mode, merged)
                if collect:
                    self.outcome.pass1_entries.append(ComparisonEntry(
                        level=1, endpoint=key[0], launch=key[1],
                        capture=key[2],
                        individual=individual_label(per_mode),
                        merged=states_label(merged), result=verdict))
                if verdict == "M":
                    continue
                if verdict == "X":
                    if not self._fix_pass1(key, per_mode, merged, ind_rows):
                        ambiguous_pass2.append(key)
                else:
                    ambiguous_pass2.append(key)
            span.annotate(keys=len(all_keys),
                          ambiguous=len(ambiguous_pass2))
            if metrics.enabled and all_keys:
                metrics.inc("profile.relationship_comparisons",
                            len(all_keys))

        if not ambiguous_pass2:
            return

        # ---------------- pass 2 ----------------
        if self.budget is not None:
            self.budget.check_time("three_pass")
        ambiguous_pass3: List[Tuple[str, str, str, str]] = []
        with tracer.span("three_pass:pass2") as span:
            endpoints = frozenset(key[0] for key in ambiguous_pass2)
            ambiguous_keys = set(ambiguous_pass2)
            ind_pairs = self._rows.pair_rows(endpoints)
            merged_pairs: Dict[Tuple[str, str, str, str], StateSet] = {}
            ep_nodes = {self.graph.node(name) for name in endpoints}
            for (sp, ep, lc, cc), states in \
                    merged_ex.pair_relationships(ep_nodes).items():
                merged_pairs[self.graph.name(sp), self.graph.name(ep),
                             lc, cc] = states

            pair_keys = {k for k in (set(ind_pairs) | set(merged_pairs))
                         if (k[1], k[2], k[3]) in ambiguous_keys}
            for key in sorted(pair_keys):
                per_mode = ind_pairs.get(key, [EMPTY] * mode_count)
                merged = merged_pairs.get(key, EMPTY)
                verdict = classify(per_mode, merged)
                if collect:
                    self.outcome.pass2_entries.append(ComparisonEntry(
                        level=2, startpoint=key[0], endpoint=key[1],
                        launch=key[2], capture=key[3],
                        individual=individual_label(per_mode),
                        merged=states_label(merged), result=verdict))
                if verdict == "M":
                    continue
                if verdict == "X":
                    if not self._fix_pass2(key, per_mode, merged, ind_pairs):
                        ambiguous_pass3.append(key)
                else:
                    ambiguous_pass3.append(key)
            span.annotate(keys=len(pair_keys),
                          ambiguous=len(ambiguous_pass3))
            if metrics.enabled and pair_keys:
                metrics.inc("profile.relationship_comparisons",
                            len(pair_keys))

        # ---------------- pass 3 ----------------
        with tracer.span("three_pass:pass3") as span:
            span.annotate(pairs=len(ambiguous_pass3))
            if metrics.enabled and ambiguous_pass3:
                metrics.inc("profile.relationship_comparisons",
                            len(ambiguous_pass3))
            for sp_name, ep_name, lc, cc in ambiguous_pass3:
                self._refine_pair(merged_ex, sp_name, ep_name, lc, cc,
                                  collect)

    # ------------------------------------------------------------------
    # pass-1 fixes
    # ------------------------------------------------------------------
    def _fix_pass1(self, key, per_mode, merged, ind_rows) -> bool:
        ep, lc, cc = key
        target = effective_state(per_mode)
        if target is False:
            return False
        candidates = [
            # -to <endpoint>: the paper's CSTR1 form; matches every clock
            # pair ending at the endpoint.
            (PathSpec(to_refs=(_obj_ref(ep),)),
             lambda k: k[0] == ep),
            # -from <launch clock> -to <endpoint>.
            (PathSpec(from_refs=(ObjectRef.clocks(lc),),
                      to_refs=(_obj_ref(ep),)),
             lambda k: k[0] == ep and k[1] == lc),
            # -from <launch clock> -to <capture clock>: design-wide pair kill.
            (PathSpec(from_refs=(ObjectRef.clocks(lc),),
                      to_refs=(ObjectRef.clocks(cc),)),
             lambda k: k[1] == lc and k[2] == cc),
        ]
        return self._try_candidates(target, merged, candidates, ind_rows)

    def _fix_pass2(self, key, per_mode, merged, ind_pairs) -> bool:
        sp, ep, lc, cc = key
        target = effective_state(per_mode)
        if target is False:
            return False
        candidates = [
            # -from <startpoint> -to <endpoint>: the paper's CSTR2 form.
            (PathSpec(from_refs=(_obj_ref(sp),), to_refs=(_obj_ref(ep),)),
             lambda k: k[0] == sp and k[1] == ep),
            # clock-restricted variant.
            (PathSpec(from_refs=(ObjectRef.clocks(lc),),
                      through_refs=(_obj_ref(sp),),
                      to_refs=(_obj_ref(ep),)),
             lambda k: k[0] == sp and k[1] == ep and k[2] == lc),
        ]
        return self._try_candidates(target, merged, candidates, ind_pairs)

    def _try_candidates(self, target, merged, candidates, rows) -> bool:
        if not self.apply_fixes:
            target_label = target.label() if target is not None else "-"
            merged_label = states_label(merged)
            self.outcome.residuals.append(
                f"mismatch at {candidates[0][0]}: individual requires "
                f"{target_label}, merged has {merged_label}")
            return True
        for spec, matcher in candidates:
            fixes = constraints_for_target(target, merged, spec)
            if fixes is None:
                self.outcome.residuals.append(
                    f"merged mode under-times bundle {spec} "
                    f"(superset violation)")
                return True
            if not fixes:
                return True
            if self._validate(target, rows, matcher):
                target_label = target.label() if target is not None else "-"
                for fix in fixes:
                    self.report.record(
                        "synthesized", fix, RULE_DERIVED,
                        self.context.mode_names(),
                        f"fix restoring individual requirement "
                        f"{target_label}",
                        kind="refinement.fix", subject=fix)
                return True
        return False

    # ------------------------------------------------------------------
    # pass-3 recursive through-refinement
    # ------------------------------------------------------------------
    def _refine_pair(self, merged_ex: RelationshipExtractor, sp_name: str,
                     ep_name: str, lc: str, cc: str, collect: bool) -> None:
        graph = self.graph
        sp = graph.node(sp_name)
        ep = graph.node(ep_name)
        stack: List[Tuple[int, ...]] = [()]
        while stack:
            if self.budget is not None:
                self.budget.check_time("three_pass")
            chain = stack.pop()
            if len(chain) > MAX_CHAIN_DEPTH:
                self.outcome.residuals.append(
                    f"chain depth limit between {sp_name} and {ep_name}")
                continue
            ind_rows = self._rows.through_rows(sp, ep, chain)
            merged_rows = merged_ex.through_states(sp, ep, chain)
            per_mode = ind_rows.get((lc, cc), [EMPTY] * self._rows.count)
            merged = merged_rows.get((lc, cc), EMPTY)
            verdict = classify(per_mode, merged)
            if collect and chain:
                self.outcome.pass3_entries.append(ComparisonEntry(
                    level=3, startpoint=sp_name, endpoint=ep_name,
                    through=", ".join(graph.name(n) for n in chain),
                    launch=lc, capture=cc,
                    individual=individual_label(per_mode),
                    merged=states_label(merged), result=verdict))
            if verdict == "M":
                continue
            if verdict == "X":
                self._fix_chain(sp_name, ep_name, lc, cc, chain, per_mode,
                                merged, ind_rows)
                continue
            # Ambiguous: split at the next divergence point.
            split = self._find_split(merged_ex, sp, ep, chain)
            if split is None:
                # A single node sequence can still mix states through its
                # rise/fall instances when edge-qualified exceptions are in
                # play — compare per endpoint data edge, the true finest
                # granularity of a timing relationship.
                if self._refine_edges(merged_ex, sp, ep, sp_name, ep_name,
                                      lc, cc, chain):
                    continue
                self.outcome.residuals.append(
                    f"unresolvable ambiguity {sp_name}->{ep_name} "
                    f"chain={[graph.name(n) for n in chain]}")
                continue
            node, insert_at, branches = split
            for branch in branches:
                new_chain = chain[:insert_at] + (branch,) + chain[insert_at:]
                stack.append(new_chain)


    def _refine_edges(self, merged_ex, sp: int, ep: int, sp_name: str,
                      ep_name: str, lc: str, cc: str,
                      chain: Tuple[int, ...]) -> bool:
        """Per-edge comparison and fixes for a single-path bundle.

        Returns True when both edges were conclusively matched or fixed.
        """
        graph = self.graph
        resolved = True
        for edge, (rise_flag, fall_flag) in (("r", (True, False)),
                                             ("f", (False, True))):
            per_mode = self._rows.through_rows(sp, ep, chain, edge).get(
                (lc, cc), [EMPTY] * self._rows.count)
            merged_rows = merged_ex.through_states(sp, ep, chain,
                                                   edge_filter=edge)
            merged = merged_rows.get((lc, cc), EMPTY)
            verdict = classify(per_mode, merged)
            if verdict == "M":
                continue
            if verdict != "X":
                resolved = False
                continue
            target = effective_state(per_mode)
            through = tuple(_obj_ref(graph.name(n)) for n in chain)
            candidates = [
                (PathSpec(from_refs=(_obj_ref(sp_name),),
                          through_refs=through,
                          to_refs=(_obj_ref(ep_name),),
                          rise_to=rise_flag, fall_to=fall_flag),
                 lambda k: True),
                (PathSpec(from_refs=(ObjectRef.clocks(lc),),
                          through_refs=(_obj_ref(sp_name),) + through,
                          to_refs=(_obj_ref(ep_name),),
                          rise_to=rise_flag, fall_to=fall_flag),
                 lambda k, _lc=lc: k[0] == _lc),
            ]
            ind_rows = {(lc, cc): per_mode}
            if not self._try_candidates(target, merged, candidates,
                                        ind_rows):
                resolved = False
        return resolved

    def _fix_chain(self, sp_name, ep_name, lc, cc, chain, per_mode, merged,
                   ind_rows) -> None:
        graph = self.graph
        target = effective_state(per_mode)
        through = tuple(_obj_ref(graph.name(n)) for n in chain)
        candidates = [
            (PathSpec(from_refs=(_obj_ref(sp_name),), through_refs=through,
                      to_refs=(_obj_ref(ep_name),)),
             lambda k: True),
            (PathSpec(from_refs=(ObjectRef.clocks(lc),),
                      through_refs=(_obj_ref(sp_name),) + through,
                      to_refs=(_obj_ref(ep_name),)),
             lambda k: k[0] == lc),
        ]
        if not self._try_candidates(target, merged, candidates, ind_rows):
            self.outcome.residuals.append(
                f"no sound fix for {sp_name}->{ep_name} "
                f"({lc}->{cc}) chain={[graph.name(n) for n in chain]}")

    def _find_split(self, merged_ex: RelationshipExtractor, sp: int, ep: int,
                    chain: Tuple[int, ...]
                    ) -> Optional[Tuple[int, int, List[int]]]:
        """First divergence node of the chain-restricted path set.

        Returns (node, chain insertion index, branch pins).  Walks each
        segment's unique-successor prefix: the first node with two or more
        in-subgraph live successors is passed by every path of the segment,
        so splitting by its fanout pins partitions the path set exactly.
        """
        graph = self.graph
        constants = merged_ex.bound.constants
        segments = [sp, *chain, ep]
        for i in range(len(segments) - 1):
            seg_from, seg_to = segments[i], segments[i + 1]
            sub = merged_ex.subgraph_between(seg_from, seg_to)
            current = seg_from
            guard = 0
            while current != seg_to:
                guard += 1
                if guard > graph.node_count:
                    return None
                successors = []
                for arc in graph.fanout[current]:
                    if arc.kind == ARC_LAUNCH and current != sp:
                        continue
                    if arc.dst not in sub:
                        continue
                    if not constants.arc_is_live(arc):
                        continue
                    successors.append(arc.dst)
                successors = sorted(set(successors),
                                    key=lambda n: graph.topo_rank[n])
                if not successors:
                    break  # no live continuation (paths died)
                if len(successors) >= 2:
                    return current, i, successors
                current = successors[0]
        return None


def run_three_pass(context: MergeContext,
                   budget: Optional[WatchdogBudget] = None
                   ) -> Tuple[StepReport, ThreePassOutcome]:
    refiner = ThreePassRefiner(context, budget=budget)
    outcome = refiner.run()
    refiner.report.note(f"{outcome.iterations} refinement iteration(s)")
    current().metrics.inc("three_pass.iterations", outcome.iterations)
    return refiner.report, outcome
