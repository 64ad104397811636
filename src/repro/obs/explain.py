"""Explain engine: decision-level root-cause queries over the pipeline.

The provenance ledger answers *what* the pipeline did to each constraint;
this module answers *why*.  Every pipeline decision — a mode pair rejected
by the mergeability scan, a case analysis dropped, an exception
uniquified, a clock stopped by refinement, a sign-off repair — is recorded
at the moment it is made as a structured :class:`Decision` node: a stable
kind, a queryable subject, a verdict, free-form evidence lines, and a
parent decision.  Parents come from **frames** (context-managed decisions
such as "merging group A+B" or "running step exceptions") so every leaf
decision carries its full causal chain back to the run root.

The ledger is one field of the observability context
(:mod:`repro.obs.context`), and free when disabled: the default
:class:`NullDecisions` makes every ``decide`` call a no-op.  Pipeline
code opens its frames with ``ObsContext.frame``, which opens the trace
span, the frame decision and the flight recorder's frame together.
Mock merges switch it off for their scope with
``observing(decisions=None)``.

Query syntax (``explain(run, query)`` and ``repro-merge explain``):

=====================  ====================================================
``pair:A,B``           mergeability verdict for a mode pair (order-free)
``group:A+B``          decisions about one merge group (order-free)
``mode:A``             decisions that involve mode ``A``
``clock:CK@U7/A``      refinement decisions for clock ``CK`` at a node
``cache:pair:A,B``     result-cache decisions for one pair (order-free)
``cache:group:A+B``    result-cache decisions for one group (order-free)
``cache:hit``          cache decisions by fate: ``hit`` / ``miss`` /
                       ``quarantined`` / ``degraded`` (bare ``cache:``
                       matches every cache decision)
``constraint:<text>``  decisions whose subject/evidence mention the text
``kind:<kind>``        every decision of one declared kind
``code:SGN003``        diagnostics bridged into the ledger, by stable code
``verdict:<verdict>``  every decision with the given verdict
``<text>``             fallback: substring match over subject + evidence
=====================  ====================================================

``explain`` returns one causal chain per matching decision: the list of
decisions from the run root down to the match.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace import NullTracer, _jsonable

#: Version of the decisions JSON artifact (``--explain out.json``).
DECISIONS_SCHEMA_VERSION = 1

#: The stable decision-kind contract, mirroring ``METRIC_CONTRACT``:
#: every kind the pipeline records is declared here with its meaning.
#: Kinds never change across releases; add a row before adding a site
#: (``DecisionLedger(strict_kinds=True)`` enforces it in the tests).
DECISION_KINDS: Dict[str, str] = {
    # -- frames (parents of leaf decisions) ----------------------------
    "run": "one CLI / library entry-point invocation",
    "mergeability.scan": "the pairwise mock-merge scan over all modes",
    "merge.group": "production merge of one analysis group",
    "merge.mode": "the full merge pipeline building one merged mode",
    "merge.step": "one pipeline step of a merge",
    "signoff.guard": "verify->localize->repair loop for a failing group",
    # -- mergeability / grouping ---------------------------------------
    "mergeability.pair": "one mode pair accepted or rejected by the scan",
    "mergeability.group": "one clique-cover group assignment",
    # -- per-step merge rules ------------------------------------------
    "case.merge": "a set_case_analysis kept, translated, or dropped",
    "exception.merge": "an exception intersected, uniquified, or dropped",
    # -- refinement ----------------------------------------------------
    "refinement.clock_stop": "a clock blocked in the merged clock network",
    "refinement.inferred_disable": "a disable inferred from dropped cases",
    "refinement.data_false_path": "an extra launch clock falsified in the "
                                  "data network",
    "refinement.fix": "a 3-pass comparison fix constraint synthesized",
    "refinement.residual": "a mismatch the 3-pass comparison cannot fix",
    # -- run-level fault handling --------------------------------------
    "merge.demotion": "mode(s) demoted from a group by fault recovery",
    "merge.budget": "a group degraded after exceeding a watchdog budget",
    # -- result cache (repro.cache) ------------------------------------
    "cache.hit": "a pair verdict or group result restored from the "
                 "result cache",
    "cache.miss": "a result-cache lookup that found no valid entry",
    "cache.quarantined": "a corrupt or version-skewed cache entry "
                         "quarantined and recomputed",
    "cache.degraded": "the result cache was disabled: an unusable "
                      "root or repeated write failures",
    # -- execution engine ----------------------------------------------
    "exec.task": "a supervised task recovered from faults or was demoted",
    "exec.retry": "one task attempt retried after an infrastructure fault",
    "exec.degrade": "a batch degraded from pooled to serial execution",
    # -- diagnostics bridge --------------------------------------------
    "diagnostic": "a structured diagnostic bridged into the ledger",
}


@dataclass
class Decision:
    """One pipeline decision with its causal parent."""

    kind: str
    #: queryable identity: ``pair:A,B``, ``clock:CK@U7/A``, ``group:A+B``,
    #: ``constraint:<sdc text>``, ``mode:A``, ``code:SGN003``
    subject: str
    #: what was decided: ``mergeable``, ``rejected``, ``uniquified``,
    #: ``stopped``, ``repaired``, ``demoted``, ...
    verdict: str = ""
    #: free-form evidence lines: the reason text, constraint SDC,
    #: diagnostic codes, provenance lineage
    evidence: List[str] = field(default_factory=list)
    parent: Optional["Decision"] = None
    #: position in the ledger (stable across export; parents always have
    #: a smaller id than their children)
    id: int = 0
    #: name of the innermost open trace span when the decision was made
    #: (links the decision graph to the trace artifact)
    span: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    def chain(self) -> List["Decision"]:
        """The causal chain root -> ... -> this decision (never empty)."""
        out: List[Decision] = []
        node: Optional[Decision] = self
        seen = set()
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            node = node.parent
        out.reverse()
        return out

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "subject": self.subject,
            "verdict": self.verdict,
            "evidence": list(self.evidence),
            "parent": self.parent.id if self.parent is not None else None,
            "span": self.span,
            "attrs": _jsonable(self.attrs),
        }

    def format(self) -> str:
        out = f"[{self.kind}] {self.subject}"
        if self.verdict:
            out += f" -> {self.verdict}"
        if self.evidence:
            out += f"  ({'; '.join(self.evidence)})"
        return out

    def __str__(self) -> str:
        return self.format()


def pair_subject(mode_a: str, mode_b: str) -> str:
    """Canonical (order-free) subject for a mode pair."""
    return "pair:" + ",".join(sorted((mode_a, mode_b)))


def group_subject(names: Iterable[str]) -> str:
    """Canonical (order-free) subject for a merge group."""
    return "group:" + "+".join(sorted(names))


class NullDecisions:
    """The disabled ledger: every operation is a no-op."""

    enabled = False

    def decide(self, kind: str, subject: str, verdict: str = "",
               evidence: Optional[Sequence[str]] = None,
               **attrs: Any) -> Optional[Decision]:
        return None


class _FrameHandle:
    """Context manager opening one frame decision as the current parent."""

    __slots__ = ("_ledger", "_decision")

    def __init__(self, ledger: "DecisionLedger", decision: Decision):
        self._ledger = ledger
        self._decision = decision

    def __enter__(self) -> Decision:
        self._ledger._stack.append(self._decision)
        return self._decision

    def __exit__(self, exc_type, exc, tb) -> None:
        self._ledger.close_frame(
            self._decision, exc_type.__name__ if exc_type is not None
            else "")


class DecisionLedger(NullDecisions):
    """Append-only ledger of :class:`Decision` nodes with a frame stack."""

    enabled = True

    def __init__(self, strict_kinds: bool = False):
        #: with strict_kinds=True an undeclared kind raises (contract
        #: test); production ledgers record any kind so skew never crashes
        self.strict_kinds = strict_kinds
        self.records: List[Decision] = []
        self._stack: List[Decision] = []
        #: the tracer whose innermost open span names each decision
        #: (wired by ``ObsContext.build``; a null tracer names none)
        self.tracer: NullTracer = NullTracer()

    def __len__(self) -> int:
        return len(self.records)

    # -- recording ------------------------------------------------------
    def _check(self, kind: str) -> None:
        if self.strict_kinds and kind not in DECISION_KINDS:
            raise KeyError(f"decision kind {kind!r} is not in "
                           f"DECISION_KINDS")

    def decide(self, kind: str, subject: str, verdict: str = "",
               evidence: Optional[Sequence[str]] = None,
               **attrs: Any) -> Decision:
        """Record one decision under the current frame."""
        self._check(kind)
        span = self.tracer.current
        decision = Decision(
            kind=kind, subject=subject, verdict=verdict,
            evidence=[str(line) for line in (evidence or ())],
            parent=self._stack[-1] if self._stack else None,
            id=len(self.records),
            span=span.name if span is not None else "",
            attrs=attrs)
        self.records.append(decision)
        return decision

    def frame(self, kind: str, subject: str, verdict: str = "",
              **attrs: Any) -> _FrameHandle:
        """Record a decision and make it the parent of nested decisions."""
        return _FrameHandle(self, self.decide(kind, subject, verdict,
                                              **attrs))

    def open_frame(self, kind: str, subject: str,
                   attrs: Dict[str, Any]) -> Decision:
        """Record a frame decision as the current parent, for
        ``ObsContext.frame``."""
        decision = self.decide(kind, subject, **attrs)
        self._stack.append(decision)
        return decision

    def close_frame(self, decision: Decision, error: str = "") -> None:
        """Close ``decision``'s frame, ``error`` naming the exception
        that left it (``attrs.error``)."""
        if error:
            decision.attrs.setdefault("error", error)
        stack = self._stack
        while stack:
            if stack.pop() is decision:
                break

    @property
    def current(self) -> Optional[Decision]:
        return self._stack[-1] if self._stack else None

    def graft(self, records: Sequence[dict]) -> List[Decision]:
        """Re-record serialized decisions (worker ``to_dict`` nodes) here.

        This is how the decision subtree a forked worker recorded makes
        it back into the parent's ledger: the worker ships
        ``[d.to_dict() for d in ledger.records]`` over the result pipe
        and the supervisor grafts them.  Ids are renumbered into this
        ledger's sequence, parent links are rewired through the old-id
        map, and roots (``parent is None`` in the worker) attach to the
        current frame — exactly where the decisions would have landed
        had the work run in-process.  Span names are preserved verbatim.
        """
        id_map: Dict[int, Decision] = {}
        grafted: List[Decision] = []
        for record in records:
            self._check(record.get("kind", ""))
            old_parent = record.get("parent")
            parent = id_map.get(old_parent) if old_parent is not None \
                else self.current
            decision = Decision(
                kind=record.get("kind", ""),
                subject=record.get("subject", ""),
                verdict=record.get("verdict", ""),
                evidence=[str(line)
                          for line in record.get("evidence", ())],
                parent=parent,
                id=len(self.records),
                span=record.get("span", ""),
                attrs=dict(record.get("attrs", {})))
            self.records.append(decision)
            if "id" in record:
                id_map[record["id"]] = decision
            grafted.append(decision)
        return grafted

    # -- queries --------------------------------------------------------
    def find(self, query: str) -> List[Decision]:
        return find_decisions(self.records, query)

    def explain(self, query: str) -> List[List[Decision]]:
        return [d.chain() for d in self.find(query)]

    def by_kind(self, kind: str) -> List[Decision]:
        return [d for d in self.records if d.kind == kind]

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for decision in self.records:
            counts[decision.kind] = counts.get(decision.kind, 0) + 1
        return dict(sorted(counts.items()))

    # -- export ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": DECISIONS_SCHEMA_VERSION,
            "kind": "repro-decisions",
            "decisions": [d.to_dict() for d in self.records],
            "by_kind": self.kinds(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    def format_tree(self) -> str:
        """Indented rendering of the whole decision forest."""
        depth: Dict[int, int] = {}
        lines = []
        for decision in self.records:
            d = 0 if decision.parent is None \
                else depth.get(id(decision.parent), 0) + 1
            depth[id(decision)] = d
            lines.append("  " * d + decision.format())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# query engine
# ---------------------------------------------------------------------------
def _split_query(query: str) -> Tuple[str, str]:
    selector, sep, value = query.partition(":")
    if not sep:
        return "", query
    return selector.strip().lower(), value.strip()


def _canonical_subject(selector: str, value: str) -> str:
    """Normalize order-sensitive selectors to their recorded form."""
    if selector == "pair":
        return pair_subject(*[p.strip() for p in value.split(",", 1)]) \
            if "," in value else f"pair:{value}"
    if selector == "group":
        return group_subject(p.strip() for p in value.split("+"))
    return f"{selector}:{value}"


def find_decisions(decisions: Sequence[Decision],
                   query: str) -> List[Decision]:
    """Every decision matching ``query`` (see module docstring syntax)."""
    selector, value = _split_query(query)
    if selector == "kind":
        return [d for d in decisions if d.kind == value]
    if selector == "verdict":
        return [d for d in decisions if d.verdict == value]
    if selector == "mode":
        return [d for d in decisions if _involves_mode(d, value)]
    if selector in ("pair", "group", "clock", "code", "pin", "case"):
        subject = _canonical_subject(selector, value)
        return [d for d in decisions if d.subject == subject]
    if selector == "cache":
        return _find_cache_decisions(decisions, value)
    if selector == "constraint":
        needle = value
        return [d for d in decisions
                if needle in d.subject
                or any(needle in line for line in d.evidence)]
    # Fallback: substring over subject + evidence (+ verdict).
    needle = query
    return [d for d in decisions
            if needle in d.subject or needle in d.verdict
            or any(needle in line for line in d.evidence)]


def _find_cache_decisions(decisions: Sequence[Decision],
                          value: str) -> List[Decision]:
    """The ``cache:`` selector: hit/miss/quarantine decisions queryable
    like ``pair:``/``group:``.

    ``cache:pair:A,B`` / ``cache:group:A+B`` match the canonical cache
    subject for that pair/group; ``cache:hit`` (miss / quarantined /
    degraded) matches by fate; anything else — including the empty
    value — substring-filters over all ``cache.*`` decisions.
    """
    pool = [d for d in decisions if d.kind.startswith("cache.")]
    inner_selector, inner_value = _split_query(value)
    if inner_selector in ("pair", "group"):
        subject = "cache:" + _canonical_subject(inner_selector,
                                                inner_value)
        return [d for d in pool if d.subject == subject]
    if value in ("hit", "miss", "quarantined", "degraded"):
        return [d for d in pool if d.kind == f"cache.{value}"]
    if not value:
        return pool
    return [d for d in pool
            if value in d.subject or value in d.verdict
            or any(value in line for line in d.evidence)]


def _involves_mode(decision: Decision, name: str) -> bool:
    if decision.subject == f"mode:{name}":
        return True
    subject_value = decision.subject.partition(":")[2]
    if name in subject_value.split(",") or name in subject_value.split("+"):
        return True
    modes = decision.attrs.get("modes")
    if isinstance(modes, (list, tuple, set)) and name in modes:
        return True
    return decision.attrs.get("mode") == name \
        or decision.attrs.get("source") == name


def _decision_pool(target) -> List[Decision]:
    if isinstance(target, DecisionLedger):
        return list(target.records)
    if isinstance(target, Decision):
        return [target]
    decisions = getattr(target, "decisions", None)
    if decisions is not None and not isinstance(target, (list, tuple)):
        # MergingRun.decisions may hold Diagnostics on old runs; keep only
        # Decision nodes.
        return [d for d in decisions if isinstance(d, Decision)]
    return [d for d in target if isinstance(d, Decision)]


def explain(target, query: str) -> List[List[Decision]]:
    """Causal chains for every decision of ``target`` matching ``query``.

    ``target`` may be a :class:`DecisionLedger`, a
    :class:`~repro.core.mergeability.MergingRun` (its ``decision_records``
    / ``decisions`` snapshot), or any iterable of :class:`Decision`.
    Each returned chain runs root -> ... -> matching decision.
    """
    records = getattr(target, "decision_records", None)
    pool = _decision_pool(records if records is not None else target)
    return [d.chain() for d in find_decisions(pool, query)]


def format_chains(chains: Sequence[Sequence[Decision]]) -> str:
    """Human-readable rendering of ``explain`` output."""
    if not chains:
        return "no matching decisions"
    blocks = []
    for chain in chains:
        blocks.append("\n".join("  " * i + d.format()
                                for i, d in enumerate(chain)))
    return "\n".join(blocks)

