"""Observability for the merge pipeline: tracing, metrics, provenance,
the explain decision ledger, profiling and the flight recorder.

Five layers travel together as one :class:`~repro.obs.context.ObsContext`
(:mod:`repro.obs.context`): instrumentation sites read ``current()`` and
use its fields, and ``observing(...)`` scope-installs a context.  Every
layer is free when disabled:

* :mod:`repro.obs.trace` — hierarchical spans with wall-time,
  attributes, and point-in-time events, exported as JSONL or Chrome
  ``trace_event``;
* :mod:`repro.obs.metrics` — counters/gauges/histograms under a
  stable-name contract, exported as JSON;
* :mod:`repro.obs.explain` — the decision ledger: every pipeline
  verdict (mergeability rejections, uniquifications, refinement stops,
  sign-off repairs) recorded with its causal chain, queryable via
  ``explain(run, "pair:funcA,scan")`` / ``repro-merge explain``;
* :mod:`repro.obs.profile` — cProfile function tables attributed to the
  pipeline's phase spans, plus hot-loop counters;
* :mod:`repro.obs.blackbox` — an **always-on flight recorder**: a
  bounded ring of recent pipeline frames, diagnostics, chaos strikes
  and (with a ledger) leaf decisions that costs nothing to keep and is
  flushed as ``blackbox.json`` only when a run dies abnormally
  (``repro-merge doctor`` renders the forensics).

:mod:`repro.obs.provenance` is the per-constraint view of merge lineage
(source modes + merge rule) over the merge steps' decision records,
surfaced by ``repro report --provenance``.
:mod:`repro.obs.report_html` stitches the layers into a self-contained
HTML run report, :mod:`repro.obs.bench_diff` compares two benchmark
snapshots, and :mod:`repro.obs.validate` holds the artifact zoo: one
declaration per artifact, from which its validator and the
``repro-merge --version`` banner follow.

See docs/OBSERVABILITY.md for the span taxonomy, the metric name
contract, the provenance record schema, the decision-node schema, and
the artifact zoo index.
"""

from repro.obs.blackbox import (
    BLACKBOX_SCHEMA_VERSION,
    BlackboxRecorder,
    NullBlackbox,
    causal_chain,
    format_doctor_report,
    load_blackbox,
)
from repro.obs.context import ObsContext, current, observing
from repro.obs.explain import (
    DECISION_KINDS,
    DECISIONS_SCHEMA_VERSION,
    Decision,
    DecisionLedger,
    NullDecisions,
    explain,
    find_decisions,
    format_chains,
    group_subject,
    pair_subject,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    METRIC_CONTRACT,
    METRICS_SCHEMA_VERSION,
    SECONDS_BUCKETS,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.provenance import (
    MERGE_RULES,
    PROVENANCE_SCHEMA_VERSION,
    RULE_DERIVED,
    RULE_INTERSECTION,
    RULE_TOLERANCE,
    RULE_UNION,
    RULE_UNIQUIFIED,
    ProvenanceLedger,
    ProvenanceRecord,
)
from repro.obs.report_html import (
    REPORT_HTML_SCHEMA_VERSION,
    render_run_report,
    write_run_report,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "BLACKBOX_SCHEMA_VERSION",
    "BlackboxRecorder",
    "COUNT_BUCKETS",
    "DECISION_KINDS",
    "DECISIONS_SCHEMA_VERSION",
    "Decision",
    "DecisionLedger",
    "MERGE_RULES",
    "METRIC_CONTRACT",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "NullBlackbox",
    "NullDecisions",
    "NullMetrics",
    "NullTracer",
    "ObsContext",
    "PROVENANCE_SCHEMA_VERSION",
    "ProvenanceLedger",
    "ProvenanceRecord",
    "REPORT_HTML_SCHEMA_VERSION",
    "RULE_DERIVED",
    "RULE_INTERSECTION",
    "RULE_TOLERANCE",
    "RULE_UNION",
    "RULE_UNIQUIFIED",
    "SECONDS_BUCKETS",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "causal_chain",
    "current",
    "explain",
    "find_decisions",
    "format_chains",
    "format_doctor_report",
    "group_subject",
    "load_blackbox",
    "observing",
    "pair_subject",
    "render_run_report",
    "write_run_report",
]
