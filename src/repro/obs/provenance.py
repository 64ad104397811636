"""Merge provenance: which modes and which rule produced each constraint?

Every constraint in a merged mode got there via one of five merge rules:

* ``union`` — carried over from one or more source modes as-is (clock
  union, external delays);
* ``tolerance-window`` — several per-mode values collapsed into one
  worst-case value within the engine tolerance (clock transition,
  latency and uncertainty; drive/load values and driving cells);
* ``intersection`` — present in (and identical across) every source mode
  (propagated clocks, case analysis, disable timing, exceptions common
  to all modes);
* ``uniquified`` — restricted to its source modes by clock scoping so it
  cannot leak onto other modes' paths (mode-specific exceptions);
* ``derived`` — synthesized by the pipeline itself rather than copied
  from any mode (conflicting cases translated to false paths, clock
  exclusivity groups, inferred disables, clock-sense stops, data
  refinement false paths, 3-pass fix constraints).

A merge step records each decision once
(:meth:`repro.core.steps.StepReport.record`); the record of a decision
that put a constraint into the merged mode is that constraint's
:class:`ProvenanceRecord`.  The :class:`ProvenanceLedger` on the
per-group ``MergeContext`` is the read side: a per-constraint view over
those records, in the order the steps made them.  SDC constraints are
frozen dataclasses with *structural* equality — two equal constraints
from different origins are distinct objects — so the view keys by
``id()``, and each record holds its constraint, which pins the id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Version of the provenance record schema (in reports and diagnostics).
PROVENANCE_SCHEMA_VERSION = 1

RULE_UNION = "union"
RULE_TOLERANCE = "tolerance-window"
RULE_INTERSECTION = "intersection"
RULE_UNIQUIFIED = "uniquified"
RULE_DERIVED = "derived"

#: The closed set of merge rules a record may carry.
MERGE_RULES = (RULE_UNION, RULE_TOLERANCE, RULE_INTERSECTION,
               RULE_UNIQUIFIED, RULE_DERIVED)


def _constraint_text(constraint) -> str:
    """Render a constraint as SDC text (repr fallback for odd types)."""
    try:
        from repro.sdc.writer import write_constraint

        return write_constraint(constraint)
    except Exception:
        return repr(constraint)


def lineage_line(record: dict) -> str:
    """``<sdc>  <= rule [modes] (detail)`` for one serialized record.

    Live records and the serialized ones that cache-restored and
    ``--jobs`` results carry render through this one function.
    """
    sources = ",".join(record.get("source_modes", ())) or "-"
    line = (f"{record.get('constraint', '?')}  "
            f"<= {record.get('rule', '?')} [{sources}]")
    if record.get("detail"):
        line += f" ({record['detail']})"
    return line


@dataclass
class ProvenanceRecord:
    """The lineage of one merged-mode constraint."""

    rule: str
    #: names of the individual modes this constraint came from; empty for
    #: purely synthesized (``derived``) constraints with no single source
    source_modes: List[str] = field(default_factory=list)
    #: which pipeline step recorded it (``clock_union``, ``exceptions``,
    #: ``three_pass``, ...)
    step: str = ""
    #: free-form detail (tolerance window width, translated case value,
    #: the residual the 3-pass fix resolves, ...)
    detail: str = ""
    constraint: Any = None

    def __post_init__(self) -> None:
        if self.rule not in MERGE_RULES:
            raise ValueError(f"unknown merge rule {self.rule!r}; "
                             f"expected one of {MERGE_RULES}")

    def add_source(self, mode_name: str) -> None:
        if mode_name not in self.source_modes:
            self.source_modes.append(mode_name)

    def to_dict(self) -> dict:
        return {
            "constraint": _constraint_text(self.constraint),
            "rule": self.rule,
            "source_modes": list(self.source_modes),
            "step": self.step,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return lineage_line(self.to_dict())


class ProvenanceLedger:
    """Read-only, id-keyed view from merged-mode constraints to their
    lineage records."""

    def __init__(self, records: Optional[Dict[int, ProvenanceRecord]] = None
                 ) -> None:
        #: id(constraint) -> record, in recording order; the merge steps
        #: fill it, the view only reads it
        self._records = {} if records is None else records

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, constraint) -> Optional[ProvenanceRecord]:
        return self._records.get(id(constraint))

    def records(self) -> List[ProvenanceRecord]:
        """All records in recording order."""
        return list(self._records.values())

    def lineage_of(self, constraints: Iterable[Any]) -> List[str]:
        """One-line lineage strings for ``constraints`` (for diagnostics).

        Constraints without a record render as bare SDC text so a guard
        repair can always name what it cut.
        """
        lines: List[str] = []
        for constraint in constraints:
            rec = self.lookup(constraint)
            lines.append(str(rec) if rec is not None
                         else _constraint_text(constraint))
        return lines

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.records():
            counts[rec.rule] = counts.get(rec.rule, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "schema_version": PROVENANCE_SCHEMA_VERSION,
            "records": [rec.to_dict() for rec in self.records()],
            "by_rule": self.by_rule(),
        }

    def format(self, limit: int = 0) -> str:
        """Human-readable listing (all records, or the first ``limit``)."""
        records = self.records()
        shown = records if limit <= 0 else records[:limit]
        lines = [str(rec) for rec in shown]
        if limit > 0 and len(records) > limit:
            lines.append(f"... ({len(records) - limit} more)")
        return "\n".join(lines)
