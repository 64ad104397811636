"""Metrics registry: counters, gauges and bucketed histograms.

The registry is the single sink for every quantitative fact the pipeline
emits — modes merged, constraints uniquified or dropped, exceptions
intersected, repair attempts, clock-graph nodes visited, cache hits.
Names follow a **stable-name contract**: every name the pipeline emits is
declared in :data:`METRIC_CONTRACT` with its kind and meaning, and names
never change across releases (tooling that matches on them must not
break).  New metrics may be added; existing ones are only ever deprecated
by documentation, never renamed.

Two exporters:

* :meth:`MetricsRegistry.to_json` — a schema-versioned JSON artifact
  (``repro-merge --metrics out.json``, ``BENCH_*.json``);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format (dots become underscores, ``repro_`` prefix).

The registry is one field of the observability context
(:mod:`repro.obs.context`): sites record on ``current().metrics``, which
defaults to a :class:`NullMetrics` whose operations are no-ops, so the
instrumentation is free when nobody is collecting.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

#: Version of the metrics JSON artifact.  Bump on incompatible layout
#: changes; downstream tooling dispatches on this field.
METRICS_SCHEMA_VERSION = 1

#: Default histogram buckets for second-valued observations.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: Default histogram buckets for count-valued observations.
COUNT_BUCKETS: Tuple[float, ...] = (1, 5, 10, 50, 100, 500, 1000, 10000)

#: The stable-name contract: every metric the pipeline emits, its kind
#: and meaning.  Instrumentation sites MUST use names declared here (a
#: unit test enforces it); add a row before adding an emission site.
METRIC_CONTRACT: Dict[str, Tuple[str, str]] = {
    # -- parsing / input ------------------------------------------------
    "parse.modes": ("counter", "SDC mode files parsed"),
    "parse.constraints": ("counter", "constraints parsed across all modes"),
    # -- mergeability analysis -----------------------------------------
    "mergeability.pairs_checked": (
        "counter", "mode pairs the mergeability scan had to answer"),
    "mergeability.pairs_scanned": (
        "counter", "mode pairs the scan decided itself (cache misses)"),
    "mergeability.pairs_mergeable": (
        "counter", "mode pairs found mergeable"),
    "mergeability.groups": (
        "counter", "merge groups chosen by the clique cover"),
    # -- merge pipeline -------------------------------------------------
    "merge.runs": ("counter", "merge_modes invocations (incl. mock runs)"),
    "merge.groups_merged": (
        "counter", "analysis groups that produced a merged mode"),
    "merge.modes_in": ("counter", "individual modes entering merge_all"),
    "merge.modes_out": ("counter", "modes remaining after merge_all"),
    "merge.constraints_added": (
        "counter", "constraints added to merged modes by pipeline steps"),
    "merge.constraints_dropped": (
        "counter", "individual-mode constraints dropped by pipeline steps"),
    "merge.step_conflicts": (
        "counter", "mergeability conflicts recorded by pipeline steps"),
    "merge.reduction_percent": (
        "gauge", "mode-count reduction of the last merge_all run"),
    "merge.group_seconds": (
        "histogram", "wall-clock seconds per group merge"),
    "merge.group_constraints": (
        "histogram", "constraint count per merged mode"),
    # -- exceptions (3.1.9/3.1.10) -------------------------------------
    "exceptions.intersected": (
        "counter", "exceptions common to all modes, added directly"),
    "exceptions.uniquified": (
        "counter", "exceptions clock-restricted to their source modes"),
    "exceptions.dropped": (
        "counter", "exceptions dropped for refinement to re-derive"),
    # -- refinement -----------------------------------------------------
    "clock_refinement.nodes_visited": (
        "counter", "timing-graph nodes visited by the clock-network walks"),
    "clock_refinement.stops": (
        "counter", "set_clock_sense -stop_propagation constraints emitted"),
    "data_refinement.false_paths": (
        "counter", "launch-clock false paths emitted by data refinement"),
    "three_pass.iterations": (
        "counter", "3-pass fix-loop iterations executed"),
    "three_pass.fixes": (
        "counter", "fix constraints synthesized by the 3-pass comparison"),
    "three_pass.residuals": (
        "counter", "unresolved mismatches left by the 3-pass comparison"),
    "three_pass.rows_reused": (
        "counter", "validations that adopted the 3-pass individual rows"),
    # -- sign-off guard / watchdog -------------------------------------
    "signoff.guard_engaged": (
        "counter", "groups handed to the sign-off guard"),
    "signoff.repair_attempts": (
        "counter", "re-merge attempts spent by the sign-off guard"),
    "signoff.repairs": (
        "counter", "groups the guard repaired (uniquify/drop verified)"),
    "signoff.demotions": (
        "counter", "modes the guard demoted to their own group"),
    "watchdog.budget_exceeded": (
        "counter", "watchdog budget trips (wall-clock/pass/graph)"),
    # -- result cache (repro.cache) -------------------------------------
    "cache.pair_hits": (
        "counter", "pair verdicts served from the result cache"),
    "cache.pair_misses": (
        "counter", "pair lookups that missed the result cache"),
    "cache.group_hits": (
        "counter", "group results restored from the result cache"),
    "cache.group_misses": (
        "counter", "group lookups that missed the result cache"),
    "cache.stores": ("counter", "result-cache entries written durably"),
    "cache.skipped_writes": (
        "counter", "identical cache entries left untouched (mtime only)"),
    "cache.quarantined": (
        "counter", "corrupt or version-skewed entries quarantined (CAC002)"),
    "cache.write_failures": (
        "counter", "cache writes that failed (ENOSPC etc., CAC005)"),
    "cache.disabled": (
        "counter", "caches disabled mid-run after repeated faults (CAC001)"),
    "cache.lock_takeovers": (
        "counter", "stale cache locks reclaimed from dead owners (CAC003)"),
    "cache.lock_contention": (
        "counter", "cache lock waits that timed out; writes skipped "
                   "(CAC004)"),
    # -- STA engine -----------------------------------------------------
    "sta.runs": ("counter", "StaEngine.run invocations"),
    "sta.endpoints": ("counter", "endpoints with a computed slack"),
    "sta.timed_relationships": (
        "counter", "timed launch/capture relationships examined"),
    "sta.run_seconds": ("histogram", "wall-clock seconds per STA run"),
    # -- execution engine ----------------------------------------------
    "exec.tasks": ("counter", "tasks submitted to the supervisor"),
    "exec.retries": ("counter", "task attempts retried after infra faults"),
    "exec.timeouts": (
        "counter", "task attempts killed for exceeding their deadline"),
    "exec.crashes": ("counter", "worker processes lost to crashes/signals"),
    "exec.corrupt_payloads": (
        "counter", "task payloads rejected by validation"),
    "exec.in_process_reruns": (
        "counter", "tasks re-run serially after exhausting pooled attempts"),
    "exec.degraded": (
        "counter", "batches degraded from pooled to serial execution"),
    "exec.workers_spawned": ("counter", "worker processes forked"),
    "exec.task_failures": (
        "counter", "tasks that failed after all attempts"),
    "exec.task_seconds": (
        "histogram", "wall-clock seconds per supervised task (all attempts)"),
    # -- profiler hot-loop counters (repro.obs.profile) ----------------
    "profile.mock_merges": (
        "counter", "scanned pairs the mode tables left to a mock merge"),
    "profile.relationship_comparisons": (
        "counter", "relationship keys compared by the 3-pass passes"),
    "profile.bfs_expansions": (
        "counter",
        "clock labels set by clock and launch-clock propagation"),
    "profile.tag_propagations": (
        "counter", "relationship tags pushed across fanout arcs"),
    "profile.tag_bulk_pushes": (
        "counter",
        "tags of profile.tag_propagations pushed as part of a whole inert "
        "tag set"),
    # -- diagnostics / run-level ---------------------------------------
    "diagnostics.emitted": ("counter", "structured diagnostics recorded"),
    "run.wall_seconds": ("gauge", "wall-clock seconds of the whole run"),
}


class _Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]):
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        # one count per bucket plus the +Inf overflow bucket
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, record: dict) -> None:
        """Fold another histogram's :meth:`to_dict` record into this one.

        Bucket layouts must match (they do whenever both sides observed
        with the same default buckets); mismatched layouts fold into the
        overflow bucket rather than corrupting counts.
        """
        if tuple(record.get("buckets", ())) == self.buckets:
            for i, count in enumerate(record.get("counts", ())):
                self.counts[i] += count
        else:
            self.counts[-1] += record.get("count", 0)
        self.sum += record.get("sum", 0.0)
        self.count += record.get("count", 0)


class NullMetrics:
    """The disabled registry: every operation is a no-op."""

    enabled = False

    def inc(self, name: str, value: float = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        return None

    def counter(self, name: str) -> float:
        return 0.0

    def gauge(self, name: str) -> Optional[float]:
        return None


class MetricsRegistry(NullMetrics):
    """Counters, gauges and histograms under the stable-name contract."""

    enabled = True

    def __init__(self, strict_names: bool = False):
        #: with strict_names=True an undeclared name raises (used by the
        #: contract test); production registries record any name so a
        #: version skew never crashes a run
        self.strict_names = strict_names
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    def _check(self, name: str, kind: str) -> None:
        if not self.strict_names:
            return
        declared = METRIC_CONTRACT.get(name)
        if declared is None:
            raise KeyError(f"metric {name!r} is not in METRIC_CONTRACT")
        if declared[0] != kind:
            raise KeyError(f"metric {name!r} is declared as "
                           f"{declared[0]}, used as {kind}")

    # -- recording ------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self._check(name, "counter")
        self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self._check(name, "gauge")
        self._gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        self._check(name, "histogram")
        hist = self._histograms.get(name)
        if hist is None:
            hist = _Histogram(buckets if buckets is not None
                              else SECONDS_BUCKETS)
            self._histograms[name] = hist
        hist.observe(value)

    # -- queries --------------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[dict]:
        hist = self._histograms.get(name)
        return hist.to_dict() if hist else None

    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._gauges)
                      | set(self._histograms))

    # -- export ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "kind": "repro-metrics",
            "counters": {k: self._counters[k]
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict()
                           for k in sorted(self._histograms)},
        }

    def merge_payload(self, payload: dict) -> None:
        """Fold another registry's :meth:`to_dict` payload into this one.

        This is how metrics recorded inside a forked worker process make
        it back to the parent: the worker serializes its registry with
        ``to_dict`` and ships it over the result pipe; the supervisor
        folds it here.  Counters and histogram observations add; gauges
        take the incoming value (last write wins, matching a single
        process's behaviour).
        """
        for name, value in payload.get("counters", {}).items():
            self.inc(name, value)
        for name, value in payload.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, record in payload.get("histograms", {}).items():
            hist = self._histograms.get(name)
            if hist is None:
                hist = _Histogram(record.get("buckets", SECONDS_BUCKETS))
                self._check(name, "histogram")
                self._histograms[name] = hist
            hist.merge(record)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_prometheus(self) -> str:
        """Prometheus text exposition: ``repro_`` prefix, dots -> _."""
        lines: List[str] = []

        def emit_meta(name: str, prom: str, kind: str) -> None:
            declared = METRIC_CONTRACT.get(name)
            if declared is not None:
                lines.append(f"# HELP {prom} {declared[1]}")
            lines.append(f"# TYPE {prom} {kind}")

        for name in sorted(self._counters):
            # Counters carry the `_total` suffix (on the HELP/TYPE
            # metadata and the sample line alike) so standard burn-rate
            # recording rules — written against prometheus_client
            # conventions — apply unchanged.
            prom = _prom_name(name) + "_total"
            emit_meta(name, prom, "counter")
            lines.append(f"{prom} {_prom_value(self._counters[name])}")
        for name in sorted(self._gauges):
            prom = _prom_name(name)
            emit_meta(name, prom, "gauge")
            lines.append(f"{prom} {_prom_value(self._gauges[name])}")
        for name in sorted(self._histograms):
            prom = _prom_name(name)
            hist = self._histograms[name]
            emit_meta(name, prom, "histogram")
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_prom_le(bound)}"}} '
                    f"{cumulative}")
            lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{prom}_sum {_prom_value(hist.sum)}")
            lines.append(f"{prom}_count {hist.count}")
        return "\n".join(lines) + "\n"

    def write(self, path, fmt: str = "json") -> None:
        with open(path, "w") as handle:
            if fmt == "json":
                handle.write(self.to_json())
            elif fmt == "prometheus":
                handle.write(self.to_prometheus())
            else:
                raise ValueError(f"unknown metrics format {fmt!r}; "
                                 f"expected 'json' or 'prometheus'")


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_le(bound: float) -> str:
    """Canonical ``le`` label value for a histogram bucket bound.

    Prometheus treats ``le`` as an opaque string: ``le="1"`` and
    ``le="1.0"`` are *different* series, and recording rules written
    against prometheus_client output expect the float spelling.  So
    bucket bounds always render via ``repr(float(...))`` — never the
    integer-collapsed form `_prom_value` uses for sample values.
    """
    if bound == float("inf"):
        return "+Inf"
    return repr(float(bound))


def _prom_value(value: float) -> str:
    """Render a sample the Prometheus text format accepts.

    Python's ``repr`` spells non-finite floats ``nan`` / ``inf`` /
    ``-inf``; the exposition format requires ``NaN`` / ``+Inf`` /
    ``-Inf``.  A scraper reading the exported file chokes on the former.
    """
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        if value.is_integer():
            return str(int(value))
    return repr(value)

