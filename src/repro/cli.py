"""Command-line interface.

Three subcommands mirror how the technique is used in a flow::

    repro-merge merge  chip.v modeA.sdc modeB.sdc ... -o merged.sdc
    repro-merge audit  chip.v --candidate merged.sdc modeA.sdc modeB.sdc ...
    repro-merge report chip.v modeA.sdc modeB.sdc ...   # mergeability only

``merge`` runs the full pipeline (mergeability analysis, per-group merges,
built-in validation) and writes one SDC file per merged mode.  ``audit``
checks an existing superset mode for relationship equivalence.  ``report``
prints the mergeability graph and the chosen merge groups without merging.

Exit-code contract (stable; scripts may rely on it):

* ``0`` — clean: every requested output was produced, no warnings;
* ``1`` — merged with warnings: the run completed but something was
  degraded (skipped SDC commands, demoted modes, audit mismatch);
* ``2`` — hard failure: an input could not be loaded or the run aborted.

``--policy`` selects the degradation policy (default ``strict``), and
``--diagnostics out.json`` writes every structured finding of the run —
code, severity, source location, remediation hint — as a JSON artifact.
A bad input file always exits ``2`` with a one-line diagnostic, never a
raw traceback.

``merge`` additionally accepts ``--signoff-guard`` (localize and repair a
merge that fails its equivalence validation), ``--budget-seconds`` (a
watchdog on each merge's refinement engines) and
``--max-repair-attempts``.

``--cache DIR`` (on ``merge`` and ``report``) opens a persistent
content-addressed result cache: pair verdicts and completed group
merges are memoized by mode *content*, so a rerun — or a run where only
one mode changed — recomputes only what that change touches.
Each group is stored as soon as it completes, so rerunning a killed
``merge`` against the same cache resumes it.
The cache is crash-safe and self-healing: corrupt or version-skewed
entries are quarantined (``CAC002``) and recomputed, an unusable or
full disk degrades the run to uncached (``CAC001``/``CAC005``), and
output bytes are identical with a cold, warm, or corrupted cache.  The
``cache`` verb inspects a cache root offline::

    repro-merge cache stats  .repro-cache
    repro-merge cache verify .repro-cache   # exit 1 if anything quarantined
    repro-merge cache prune  .repro-cache --max-age 604800 --keep 1000
    repro-merge cache clear  .repro-cache

Observability (see ``docs/OBSERVABILITY.md``): ``--trace OUT`` records a
hierarchical span tree of the run (``--trace-format`` selects JSONL or
Chrome ``trace_event``), ``--metrics OUT`` writes the metrics registry
(``--metrics-format`` selects JSON or Prometheus text), and
``merge/report --provenance`` prints each merged-mode constraint's
lineage — which source modes and which merge rule produced it.

``--jobs N`` distributes the mergeability scan and the per-group merges
over the supervised execution engine (``repro.exec``): per-task
deadlines, bounded retry, crash isolation, serial degradation — with
results flushed in a deterministic order, so ``--jobs 4`` output is
byte-identical to a serial run's, and its trace, metrics and decisions
match a serial run's.  ``jobs`` must be >= 1 (a bad value is
an input error: usage message, exit 2, no traceback).

``--explain OUT.json`` records every pipeline decision (mergeability
verdicts, case/exception merges, refinement stops, sign-off repairs)
as a causal graph, ``--report-html OUT.html`` writes a self-contained
HTML run report stitching trace, metrics, provenance, diagnostics and
decisions into one reviewable file, and the ``explain`` verb queries
the decision graph directly::

    repro-merge explain chip.v modeA.sdc modeB.sdc --query pair:modeA,modeB

``--profile OUT.json`` wraps the run in the span-attributed profiler
(``repro.obs.profile``): exclusive vs cumulative time per span, top-N
functions per pipeline phase, hot-loop counters — written as a
schema-versioned ``profile.json`` and folded into ``--report-html`` as
a "Profile" section.  Under ``--jobs N`` each worker profiles its own
tasks and the merged profile is deterministic.  ``bench-trends``
aggregates historical ``BENCH_*.json`` snapshot directories into a
self-contained trend report (see ``repro.obs.trends``)::

    repro-merge bench-trends bench-2026-01 bench-2026-02 bench-2026-03 \\
        -o trends.html --json trends.json

Every run also carries an always-on bounded flight recorder
(``repro.obs.blackbox``) — no flag needed.  Clean exits discard it;
abnormal exits (uncaught exceptions, budget trips, SIGTERM/SIGINT,
worker crash demotions) atomically flush a schema-versioned
``blackbox.json`` next to the merge output (override the target with
``--blackbox PATH``/``$REPRO_BLACKBOX``, or disable with
``--blackbox off``).  The ``doctor`` verb renders the forensic report
— failing phase, causal event chain, last-known state — from any such
artifact::

    repro-merge doctor blackbox.json [--json]

``fuzz`` runs the property-based differential fuzzing harness
(``repro.fuzz``): deterministic adversarial workloads from ``--seed``,
five metamorphic invariant oracles (Section 2 equivalence under the
sign-off guard, mode-permutation invariance, ``--jobs`` byte-identity,
cache byte-identity, kill/resume identity), automatic
delta-debug minimization and a signature-deduped failure corpus of
self-contained repro bundles::

    repro-merge fuzz --seed 7 --budget-seconds 60 --corpus fuzz-corpus
    repro-merge fuzz --replay fuzz-corpus/<signature>   # exit 1 = repro
    repro-merge doctor fuzz-corpus/<signature>/blackbox.json

``--version`` prints the package version plus the schema version of
every artifact kind the build emits, so bug reports pin the full
format surface.
"""

from __future__ import annotations

import argparse
import os
import signal as _signal
import sys
import threading as _threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro import __version__
from repro.core import (
    build_mergeability_graph,
    check_mode_equivalence,
    format_merging_run,
    merge_all,
)
from repro.core.merger import MergeOptions
from repro.diagnostics import (
    DegradationPolicy,
    DiagnosticCollector,
    Severity,
)
from repro.errors import BudgetExceededError, ChaosSpecError, ReproError
from repro.netlist import read_verilog
from repro.obs.blackbox import (
    BlackboxRecorder,
    format_doctor_report,
    load_blackbox,
)
from repro.obs.context import ObsContext, current, observing
from repro.obs.explain import DecisionLedger, format_chains
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.sdc import Mode, parse_mode, write_mode


class _HardFailure(Exception):
    """Internal: abort the subcommand; diagnostics carry the details."""


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an int >= 1, rejected tracebacklessly."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {value}")
    return value


def _read_text(path: str, collector: DiagnosticCollector) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        collector.capture(exc, source=path)
        raise _HardFailure() from exc
    except UnicodeDecodeError as exc:
        collector.capture(exc, source=path)
        raise _HardFailure() from exc


def _load_modes(paths: List[str], policy: DegradationPolicy,
                collector: DiagnosticCollector) -> List[Mode]:
    modes = []
    obs = current()
    with obs.tracer.span("parse", files=len(paths)) as span:
        for path in paths:
            text = _read_text(path, collector)
            try:
                modes.append(parse_mode(text, Path(path).stem, policy=policy,
                                        collector=collector, source=path))
            except ReproError as exc:
                collector.capture(exc, source=path)
                raise _HardFailure() from exc
        obs.metrics.inc("parse.modes", len(modes))
        obs.metrics.inc("parse.constraints", sum(len(m) for m in modes))
        span.annotate(modes=len(modes),
                      constraints=sum(len(m) for m in modes))
    return modes


def _load_netlist(path: str, liberty: str,
                  collector: DiagnosticCollector):
    library = None
    if liberty:
        from repro.netlist import read_liberty

        text = _read_text(liberty, collector)
        try:
            library = read_liberty(text)
        except ReproError as exc:
            collector.capture(exc, source=liberty)
            raise _HardFailure() from exc
    text = _read_text(path, collector)
    try:
        return read_verilog(text, library)
    except ReproError as exc:
        collector.capture(exc, source=path)
        raise _HardFailure() from exc


def _open_cache(args: argparse.Namespace,
                collector: DiagnosticCollector):
    """Open the ``--cache`` result cache, or None when not requested.

    An unusable root (unwritable, not a directory) degrades the run to
    uncached via the cache's own ``CAC001`` diagnostic — never exit 2.
    """
    if not getattr(args, "cache", ""):
        return None
    from repro.cache import ResultCache

    return ResultCache.open(args.cache, collector=collector)


def cmd_merge(args: argparse.Namespace, policy: DegradationPolicy,
              collector: DiagnosticCollector) -> int:
    netlist = _load_netlist(args.netlist, args.liberty, collector)
    modes = _load_modes(args.sdc, policy, collector)
    options = MergeOptions(
        policy=policy,
        signoff_guard=args.signoff_guard,
        max_repair_attempts=args.max_repair_attempts,
        budget_seconds=args.budget_seconds,
    )
    cache = _open_cache(args, collector)
    run = merge_all(netlist, modes, options, collector=collector,
                    jobs=args.jobs, cache=cache)
    if cache is not None:
        cache.flush_stats()
    args._run = run  # for --report-html / --explain artifact writing
    print(format_merging_run(run))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for outcome in run.outcomes:
        if outcome.result is None:
            failures += 1
            reason = outcome.error or "unknown failure"
            print(f"not merged {'+'.join(outcome.mode_names)}: {reason}")
            continue
        if not outcome.result.ok:
            failures += 1
        name = outcome.result.merged.name.replace("+", "_")
        target = out_dir / f"{name}.sdc"
        target.write_text(write_mode(outcome.result.merged))
        print(f"wrote {target}")
    if args.json:
        import json

        report_path = out_dir / "merge_report.json"
        report_path.write_text(json.dumps(run.to_dict(), indent=2) + "\n")
        print(f"wrote {report_path}")
    if args.provenance:
        for outcome in run.outcomes:
            if outcome.result is None:
                continue
            _print_provenance(outcome.result)
    for diagnostic in collector:
        if diagnostic.code == "EXE006":
            # A worker task exhausted its retries (crash/hang/fault) and
            # the group was demoted — infrastructure trouble, not an
            # input problem, so mark the run for a flight-recorder
            # flush on exit.
            args._blackbox_reason = {
                "kind": "worker-fault",
                "detail": diagnostic.message[:240]}
            break
    if failures:
        return 1
    # exit_code() centralizes the 0/1/2 contract; a completed-but-degraded
    # run caps at 1 (hard failures exit 2 via _HardFailure above).
    return min(collector.exit_code(), 1)


def _print_provenance(result) -> None:
    """Print one merged mode's constraint lineage.

    Works for live ``MergeResult`` objects and cache-restored results
    alike by reading the serialized record.
    """
    records = result.to_dict().get("provenance", [])
    name = result.merged.name
    print(f"provenance {name}: {len(records)} constraint(s)")
    for record in records:
        sources = ",".join(record.get("source_modes", ())) or "-"
        line = (f"  {record.get('constraint', '?')}  "
                f"<= {record.get('rule', '?')} [{sources}]")
        if record.get("detail"):
            line += f" ({record['detail']})"
        print(line)


def cmd_audit(args: argparse.Namespace, policy: DegradationPolicy,
              collector: DiagnosticCollector) -> int:
    netlist = _load_netlist(args.netlist, args.liberty, collector)
    modes = _load_modes(args.sdc, policy, collector)
    candidate = _load_modes([args.candidate], policy, collector)[0]
    report = check_mode_equivalence(netlist, modes, candidate)
    print(report.summary())
    return 0 if report.equivalent else 1


def cmd_report(args: argparse.Namespace, policy: DegradationPolicy,
               collector: DiagnosticCollector) -> int:
    netlist = _load_netlist(args.netlist, args.liberty, collector)
    modes = _load_modes(args.sdc, policy, collector)
    cache = _open_cache(args, collector)
    analysis = build_mergeability_graph(
        netlist, modes, MergeOptions(policy=policy), jobs=args.jobs,
        collector=collector, cache=cache)
    if cache is not None:
        cache.flush_stats()
    print(analysis.summary())
    for pair, reason in sorted(analysis.reasons.items(),
                               key=lambda kv: sorted(kv[0])):
        print(f"  non-mergeable {sorted(pair)}: {reason}")
    if args.provenance:
        from repro.core import merge_modes

        by_name = {m.name: m for m in modes}
        for group in analysis.groups:
            if len(group) < 2:
                continue
            try:
                result = merge_modes(netlist,
                                     [by_name[n] for n in group],
                                     options=MergeOptions(policy=policy))
            except ReproError as exc:
                collector.capture(exc, source="+".join(group))
                continue
            _print_provenance(result)
    return 0


def cmd_explain(args: argparse.Namespace, policy: DegradationPolicy,
                collector: DiagnosticCollector) -> int:
    """Run the pipeline under a decision ledger and answer queries.

    Exit 0 when every query matched at least one decision, 1 otherwise
    (scripts can probe "did the pipeline reject this pair?").
    """
    netlist = _load_netlist(args.netlist, args.liberty, collector)
    modes = _load_modes(args.sdc, policy, collector)
    options = MergeOptions(policy=policy,
                           signoff_guard=args.signoff_guard)
    run = merge_all(netlist, modes, options, collector=collector,
                    jobs=args.jobs)
    args._run = run
    unmatched = 0
    for query in args.query:
        chains = run.explain(query)
        print(f"explain {query!r}: {len(chains)} matching decision(s)")
        print(format_chains(chains))
        if not chains:
            unmatched += 1
    return 1 if unmatched else 0


def cmd_bench_trends(args: argparse.Namespace, policy: DegradationPolicy,
                     collector: DiagnosticCollector) -> int:
    """Aggregate BENCH snapshot series into trends.html / trends.json.

    Reporting, not gating: regressions are *marked* in the output, the
    exit code only distinguishes success (0) from unusable inputs (2).
    ``bench_diff`` remains the pairwise gate for CI.
    """
    from repro.obs import trends as trends_mod

    paths = args.snapshots or trends_mod.discover_snapshots()
    if len(paths) < 2:
        print("bench-trends: need at least two snapshots (pass paths or "
              "set REPRO_BENCH_DIR to a directory of snapshot "
              "subdirectories)", file=sys.stderr)
        return 2
    try:
        snapshots = [trends_mod.load_snapshot(path) for path in paths]
        payload = trends_mod.build_trends(snapshots,
                                          threshold_percent=args.threshold)
        trends_mod.write_trends_html(args.output, payload)
        print(f"wrote {args.output}")
        if args.trends_json:
            trends_mod.write_trends_json(args.trends_json, payload)
            print(f"wrote {args.trends_json}")
    except trends_mod.TrendsError as exc:
        print(f"bench-trends: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bench-trends: cannot write output: {exc}", file=sys.stderr)
        return 2
    summary = payload["summary"]
    print(f"{summary['snapshots']} snapshot(s), {summary['metrics']} "
          f"metric(s): {summary['regressions']} regression(s), "
          f"{summary['improvements']} improvement(s) past "
          f"{args.threshold:g}%")
    return 0


def cmd_cache(args: argparse.Namespace, policy: DegradationPolicy,
              collector: DiagnosticCollector) -> int:
    """Inspect or maintain a result-cache root offline.

    Exit-code contract: ``stats``/``prune``/``clear`` exit 0 on
    success; ``verify`` exits 1 when any entry had to be quarantined
    (scripts can gate on cache health); an unusable root exits 2.
    """
    from repro.cache import ResultCache

    cache = ResultCache.open(args.root, collector=collector)
    if not cache.enabled:
        print(f"cache root {args.root} is unusable", file=sys.stderr)
        return 2
    if args.action == "stats":
        for key, value in sorted(cache.stats().items()):
            print(f"{key}: {value}")
        return 0
    if args.action == "verify":
        report = cache.verify()
        print(f"checked {report['checked']} entr(ies), "
              f"quarantined {report['quarantined']}")
        return 1 if report["quarantined"] else 0
    if args.action == "prune":
        report = cache.prune(max_age_seconds=args.max_age, keep=args.keep)
        print(f"scanned {report['scanned']} entr(ies), "
              f"evicted {report['evicted']}")
        return 0
    report = cache.clear()
    print(f"removed {report['removed']} entr(ies)")
    return 0


def cmd_doctor(args: argparse.Namespace, policy: DegradationPolicy,
               collector: DiagnosticCollector) -> int:
    """Render the forensic report of a flushed ``blackbox.json``.

    Exit-code contract: 0 when the artifact loads and the report is
    rendered; an unreadable or structurally invalid file exits 2 with a
    one-line diagnostic (never a traceback).
    """
    import json as json_mod

    try:
        payload = load_blackbox(args.blackbox_file)
    except ValueError as exc:
        collector.report("DOC001", str(exc), severity=Severity.ERROR,
                         source=str(args.blackbox_file))
        raise _HardFailure() from exc
    if args.doctor_json:
        print(json_mod.dumps(payload, indent=2))
    else:
        print(format_doctor_report(payload), end="")
    return 0


def cmd_fuzz(args: argparse.Namespace, policy: DegradationPolicy,
             collector: DiagnosticCollector) -> int:
    """Run the differential fuzzing harness (see ``repro.fuzz``).

    Exit-code contract: 0 — every generated case passed all oracles;
    1 — at least one invariant violation was found (repro bundles are
    in the corpus); 2 — unusable arguments or an unreadable ``--replay``
    bundle.  ``--replay BUNDLE`` instead re-runs one recorded failure:
    exit 1 when it still reproduces, 0 when this build is clean.
    """
    import json as json_mod

    from repro.fuzz.corpus import replay_bundle
    from repro.fuzz.runner import FuzzConfig, FuzzRunner

    if args.replay:
        fuzz_jobs = args.jobs if args.jobs > 1 else 2
        try:
            reproduced, detail = replay_bundle(args.replay,
                                               jobs=fuzz_jobs)
        except ValueError as exc:
            collector.report("FZZ001", str(exc), severity=Severity.ERROR,
                             source=str(args.replay))
            raise _HardFailure() from exc
        print(f"replay {args.replay}: "
              f"{'REPRODUCED' if reproduced else 'clean'} — {detail}")
        return 1 if reproduced else 0

    config = FuzzConfig(
        seed=args.seed,
        budget_seconds=args.budget_seconds,
        families=tuple(args.families or ()),
        corpus_dir=args.corpus,
        max_cases=args.max_cases,
        jobs=args.jobs if args.jobs > 1 else 2,
        shrink=not args.no_shrink,
    )
    try:
        runner = FuzzRunner(config, log=print)
    except ValueError as exc:  # unknown family name
        collector.report("FZZ001", str(exc), severity=Severity.ERROR,
                         source="--families")
        raise _HardFailure() from exc
    outcome = runner.run()
    summary = outcome.payload["summary"]
    try:
        Path(args.fuzz_output).write_text(
            json_mod.dumps(outcome.payload, indent=2, sort_keys=True)
            + "\n")
        print(f"wrote {args.fuzz_output}")
    except OSError as exc:
        collector.capture(exc, source=args.fuzz_output)
        raise _HardFailure() from exc
    print(f"fuzz: {summary['cases']} case(s) over "
          f"{len(runner.families)} famil(ies), seed {config.seed}: "
          f"{summary['violations']} violation(s), "
          f"{summary['new_bundles']} new bundle(s), "
          f"{summary['duplicates']} duplicate(s), "
          f"{summary['rejected']} rejected input(s) "
          f"in {summary['elapsed_seconds']:g}s")
    for bundle in outcome.new_bundles:
        print(f"repro bundle: {bundle} "
              f"(triage: repro-merge doctor {bundle}/blackbox.json)")
    if summary["violations"]:
        args._blackbox_reason = {
            "kind": "fuzz-violation",
            "detail": f"{summary['violations']} invariant violation(s); "
                      f"corpus {config.corpus_dir}"[:240]}
        return 1
    return 0


def _artifact_schema_versions() -> dict:
    """Every artifact kind's schema version, for ``--version`` output.

    Bug reports quoting ``--version`` pin the full format surface —
    which cache/profile/trends/blackbox layouts the build emits — not
    just the package version.
    """
    from repro.cache import CACHE_SCHEMA_VERSION
    from repro.obs.blackbox import BLACKBOX_SCHEMA_VERSION
    from repro.obs.explain import DECISIONS_SCHEMA_VERSION
    from repro.obs.metrics import METRICS_SCHEMA_VERSION
    from repro.obs.profile import PROFILE_SCHEMA_VERSION
    from repro.obs.provenance import PROVENANCE_SCHEMA_VERSION
    from repro.obs.report_html import REPORT_HTML_SCHEMA_VERSION
    from repro.diagnostics import DIAGNOSTICS_SCHEMA_VERSION
    from repro.obs.trace import TRACE_SCHEMA_VERSION
    from repro.obs.trends import TRENDS_SCHEMA_VERSION
    from repro.fuzz import FUZZ_SCHEMA_VERSION

    return {
        "blackbox": BLACKBOX_SCHEMA_VERSION,
        "fuzz": FUZZ_SCHEMA_VERSION,
        "cache": CACHE_SCHEMA_VERSION,
        "decisions": DECISIONS_SCHEMA_VERSION,
        "diagnostics": DIAGNOSTICS_SCHEMA_VERSION,
        "metrics": METRICS_SCHEMA_VERSION,
        "profile": PROFILE_SCHEMA_VERSION,
        "provenance": PROVENANCE_SCHEMA_VERSION,
        "report-html": REPORT_HTML_SCHEMA_VERSION,
        "trace": TRACE_SCHEMA_VERSION,
        "trends": TRENDS_SCHEMA_VERSION,
    }


def _version_string() -> str:
    versions = ", ".join(f"{kind}={version}" for kind, version
                         in sorted(_artifact_schema_versions().items()))
    return (f"%(prog)s {__version__}\n"
            f"artifact schema versions: {versions}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-merge",
        description="Timing-graph based SDC mode merging (DAC 2015 repro)")
    parser.add_argument("--version", action="version",
                        version=_version_string())
    parser.add_argument("--trace", default="", metavar="OUT",
                        help="record a hierarchical span trace of the run "
                             "to this file")
    parser.add_argument("--trace-format", default="jsonl",
                        choices=["jsonl", "chrome"],
                        help="trace file format: one JSON object per span "
                             "(jsonl, default) or Chrome trace_event "
                             "(chrome; load in about://tracing)")
    parser.add_argument("--metrics", default="", metavar="OUT",
                        help="write the run's metrics registry (stable "
                             "names, see docs/OBSERVABILITY.md) to this "
                             "file")
    parser.add_argument("--metrics-format", default="json",
                        choices=["json", "prometheus"],
                        help="metrics file format (default json)")
    parser.add_argument("--explain", default="", metavar="OUT.JSON",
                        help="record every pipeline decision (mergeability "
                             "verdicts, merge rules, refinement stops, "
                             "sign-off repairs) as a causal graph in this "
                             "JSON file")
    parser.add_argument("--report-html", default="", metavar="OUT.HTML",
                        help="write a self-contained HTML run report "
                             "(trace + metrics + provenance + diagnostics "
                             "+ decision graph) to this file")
    parser.add_argument("--profile", default="", metavar="OUT.JSON",
                        help="profile the run and write a span-attributed "
                             "profile (self/cumulative time per span, "
                             "top functions per phase, hot-loop counters) "
                             "to this file; implies trace and metrics "
                             "collection")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="worker processes for the mergeability scan "
                             "and the per-group merges (default 1 = "
                             "serial; parallel output is byte-identical "
                             "to serial)")
    parser.add_argument("--liberty", default="",
                        help="Liberty (.lib) file defining the cell "
                             "library (default: the built-in generic "
                             "library)")
    parser.add_argument("--policy", default="strict",
                        choices=[p.value for p in DegradationPolicy],
                        help="degradation policy: strict raises on the "
                             "first problem, lenient skips unsupported/"
                             "invalid SDC commands and demotes failing "
                             "modes, permissive additionally recovers "
                             "from malformed SDC lines")
    parser.add_argument("--diagnostics", default="", metavar="OUT.JSON",
                        help="write the run's structured diagnostics to "
                             "this JSON file")
    parser.add_argument("--blackbox", default="", metavar="OUT.JSON",
                        help="where an abnormal exit flushes the flight "
                             "recorder ('off' disables it; default: "
                             "blackbox.json in the merge output "
                             "directory, else the working directory; "
                             "$REPRO_BLACKBOX overrides).  The recorder "
                             "itself is always on; a clean run writes "
                             "nothing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge modes into superset modes")
    p_merge.add_argument("netlist", help="structural Verilog netlist")
    p_merge.add_argument("sdc", nargs="+", help="per-mode SDC files")
    p_merge.add_argument("-o", "--output", default="merged",
                         help="output directory for merged SDC files")
    p_merge.add_argument("--json", action="store_true",
                         help="also write merge_report.json to the output "
                              "directory")
    p_merge.add_argument("--signoff-guard", action="store_true",
                         help="on a failed equivalence validation, "
                              "localize the culprit mode/constraint and "
                              "repair the merge (SGN diagnostics)")
    p_merge.add_argument("--max-repair-attempts", type=int, default=12,
                         metavar="N",
                         help="re-merge attempts the sign-off guard may "
                              "spend per failing group (default 12)")
    p_merge.add_argument("--budget-seconds", type=float, default=None,
                         metavar="S",
                         help="wall-clock watchdog budget for the "
                              "refinement engines of each merge "
                              "(default: unbounded)")
    p_merge.add_argument("--cache", default="", metavar="DIR",
                         help="persistent result-cache directory: pair "
                              "verdicts and group merges are memoized by "
                              "mode content and reused across runs, so a "
                              "killed run resumes (created if missing; "
                              "corrupt entries are quarantined and "
                              "recomputed)")
    p_merge.add_argument("--provenance", action="store_true",
                         help="print every merged-mode constraint's "
                              "lineage: source modes and merge rule")
    p_merge.set_defaults(func=cmd_merge)

    p_audit = sub.add_parser("audit",
                             help="equivalence-audit a superset mode")
    p_audit.add_argument("netlist")
    p_audit.add_argument("sdc", nargs="+", help="the individual modes")
    p_audit.add_argument("--candidate", required=True,
                         help="the superset-mode SDC to audit")
    p_audit.set_defaults(func=cmd_audit)

    p_report = sub.add_parser("report", help="mergeability analysis only")
    p_report.add_argument("netlist")
    p_report.add_argument("sdc", nargs="+")
    p_report.add_argument("--provenance", action="store_true",
                          help="also merge each group and print every "
                               "merged-mode constraint's lineage")
    p_report.add_argument("--cache", default="", metavar="DIR",
                          help="persistent result-cache directory "
                               "(reuses pair verdicts across runs)")
    p_report.set_defaults(func=cmd_report)

    p_explain = sub.add_parser(
        "explain",
        help="run the pipeline and query its decision graph")
    p_explain.add_argument("netlist")
    p_explain.add_argument("sdc", nargs="+", help="per-mode SDC files")
    p_explain.add_argument("--query", action="append", required=True,
                           metavar="QUERY",
                           help="decision query (repeatable): pair:A,B, "
                                "group:A+B, mode:A, clock:CK@NODE, "
                                "kind:<kind>, code:SGN003, verdict:<v>, "
                                "constraint:<text>, or a bare substring")
    p_explain.add_argument("--signoff-guard", action="store_true",
                           help="enable the sign-off guard so its repair "
                                "decisions appear in the graph")
    p_explain.set_defaults(func=cmd_explain)

    p_trends = sub.add_parser(
        "bench-trends",
        help="aggregate BENCH_*.json snapshots into a trend report")
    p_trends.add_argument("snapshots", nargs="*", metavar="SNAPSHOT",
                          help="snapshot files or directories in series "
                               "order (default: the sorted subdirectories "
                               "of $REPRO_BENCH_DIR)")
    p_trends.add_argument("-o", "--output", default="trends.html",
                          metavar="OUT.HTML",
                          help="self-contained HTML trend report "
                               "(default trends.html)")
    p_trends.add_argument("--json", dest="trends_json",
                          default="trends.json", metavar="OUT.JSON",
                          help="machine-readable trend series "
                               "(default trends.json; '' skips it)")
    p_trends.add_argument("--threshold", type=float, default=25.0,
                          metavar="PCT",
                          help="percent change marking a regression/"
                               "improvement between adjacent snapshots "
                               "(default 25)")
    p_trends.set_defaults(func=cmd_bench_trends)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or maintain a result-cache directory")
    p_cache.add_argument("action",
                         choices=["stats", "verify", "prune", "clear"],
                         help="stats: entry/byte/hit counters; verify: "
                              "integrity-check every entry (exit 1 if any "
                              "is quarantined); prune: evict old/excess "
                              "entries; clear: remove everything")
    p_cache.add_argument("root", help="cache directory (as passed to "
                                      "--cache)")
    p_cache.add_argument("--max-age", type=float, default=None,
                         metavar="S",
                         help="prune: evict entries older than S seconds")
    p_cache.add_argument("--keep", type=int, default=None, metavar="N",
                         help="prune: keep at most the N newest entries "
                              "per space")
    p_cache.set_defaults(func=cmd_cache)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="run the differential fuzzing harness (adversarial "
             "workloads x five metamorphic invariants)")
    p_fuzz.add_argument("--seed", type=int, default=0, metavar="S",
                        help="root seed; the same seed generates the "
                             "same workloads and verdicts (default 0)")
    p_fuzz.add_argument("--budget-seconds", type=float, default=60.0,
                        metavar="B",
                        help="stop drawing new cases after B seconds "
                             "(default 60; ignored when --max-cases "
                             "is given)")
    p_fuzz.add_argument("--max-cases", type=int, default=None,
                        metavar="N",
                        help="run exactly N cases instead of a time "
                             "budget (deterministic case count)")
    p_fuzz.add_argument("--families", nargs="*", metavar="FAMILY",
                        help="restrict to these workload families "
                             "(default: all; see docs/ROBUSTNESS.md)")
    p_fuzz.add_argument("--corpus", default="fuzz-corpus",
                        metavar="DIR",
                        help="failure corpus directory: repro bundles "
                             "land here, deduped by failure signature "
                             "(default ./fuzz-corpus)")
    p_fuzz.add_argument("-o", "--fuzz-output", default="fuzz.json",
                        metavar="OUT.JSON",
                        help="schema-versioned run summary "
                             "(default fuzz.json)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debug minimization of failing "
                             "cases (bundles keep the full workload)")
    p_fuzz.add_argument("--replay", default="", metavar="BUNDLE",
                        help="re-run one repro bundle's recorded "
                             "oracle instead of fuzzing (exit 1 if it "
                             "still reproduces)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_doctor = sub.add_parser(
        "doctor",
        help="render the forensic report of a crashed run's "
             "blackbox.json")
    p_doctor.add_argument("blackbox_file", metavar="BLACKBOX.json",
                          help="a blackbox.json flushed by an abnormal "
                               "exit")
    p_doctor.add_argument("--json", dest="doctor_json",
                          action="store_true",
                          help="print the raw payload instead of the "
                               "rendered report")
    p_doctor.set_defaults(func=cmd_doctor)
    return parser


def _write_diagnostics(path: str, collector: DiagnosticCollector) -> None:
    if not path:
        return
    try:
        Path(path).write_text(collector.to_json())
    except OSError as exc:  # diagnostics must never crash the run
        print(f"cannot write diagnostics to {path}: {exc}", file=sys.stderr)


def _sibling_artifacts(args, report_path: Path,
                       blackbox_target: Optional[Path]) -> dict:
    """Relative links from the HTML report to this run's other artifacts."""
    base = str(report_path.parent) or "."
    candidates = [
        ("trace", args.trace),
        ("metrics", args.metrics),
        ("decisions", args.explain),
        ("profile", getattr(args, "profile", "")),
        ("diagnostics", args.diagnostics),
    ]
    # The blackbox only exists after an abnormal exit; link it only when
    # this run actually flushed one.
    if blackbox_target is not None and blackbox_target.exists():
        candidates.append(("blackbox", str(blackbox_target)))
    artifacts = {}
    for label, path in candidates:
        if not path:
            continue
        try:
            artifacts[label] = os.path.relpath(path, base)
        except ValueError:  # pragma: no cover — cross-drive on Windows
            artifacts[label] = str(path)
    return artifacts


def _write_observability(args, tracer, metrics, ledger,
                         profiler=None, blackbox_target=None) -> None:
    """Flush trace/metrics artifacts; export errors must not mask the run."""
    if tracer is not None and args.trace:
        try:
            tracer.write(args.trace, fmt=args.trace_format)
            print(f"wrote {args.trace}")
        except OSError as exc:
            print(f"cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
    if metrics is not None and args.metrics:
        try:
            metrics.write(args.metrics, fmt=args.metrics_format)
            print(f"wrote {args.metrics}")
        except OSError as exc:
            print(f"cannot write metrics to {args.metrics}: {exc}",
                  file=sys.stderr)
    if ledger is not None and args.explain:
        try:
            ledger.write(args.explain)
            print(f"wrote {args.explain}")
        except OSError as exc:
            print(f"cannot write decisions to {args.explain}: {exc}",
                  file=sys.stderr)
    profile_payload = None
    if profiler is not None:
        import json as json_mod

        profile_payload = profiler.export(tracer=tracer, metrics=metrics)
        if getattr(args, "profile", ""):
            try:
                Path(args.profile).write_text(
                    json_mod.dumps(profile_payload, indent=2) + "\n")
                print(f"wrote {args.profile}")
            except OSError as exc:
                print(f"cannot write profile to {args.profile}: {exc}",
                      file=sys.stderr)
    if args.report_html:
        from repro.obs.report_html import write_run_report

        try:
            write_run_report(
                args.report_html, run=getattr(args, "_run", None),
                tracer=tracer, metrics=metrics, decisions=ledger,
                profile=profile_payload,
                artifacts=_sibling_artifacts(
                    args, Path(args.report_html), blackbox_target),
                title=f"repro-merge {args.command}")
            print(f"wrote {args.report_html}")
        except OSError as exc:
            print(f"cannot write run report to {args.report_html}: {exc}",
                  file=sys.stderr)


def _blackbox_target(args: argparse.Namespace) -> Optional[Path]:
    """Where an abnormal exit flushes the flight recorder (None = off).

    ``--blackbox``/$REPRO_BLACKBOX override; otherwise ``merge`` runs
    flush next to their outputs (that is where an operator looks first)
    and every other verb flushes into the working directory.
    """
    override = getattr(args, "blackbox", "") \
        or os.environ.get("REPRO_BLACKBOX", "")
    if override:
        if override.lower() in ("off", "none", "0"):
            return None
        return Path(override)
    if getattr(args, "command", "") == "merge" \
            and getattr(args, "output", ""):
        return Path(args.output) / "blackbox.json"
    return Path("blackbox.json")


def _run_command(args: argparse.Namespace, policy: DegradationPolicy,
                 collector: DiagnosticCollector
                 ) -> Tuple[int, Optional[dict]]:
    """Run the verb under the installed context: (exit code, the reason
    to flush the flight recorder or None)."""
    obs = current()
    with obs.tracer.span("run", command=args.command), \
            obs.decisions.frame("run", f"run:{args.command}",
                                command=args.command):
        try:
            return args.func(args, policy, collector), None
        except _HardFailure:
            # Controlled input errors: well-diagnosed already, no
            # forensics needed.
            return 2, None
        except BudgetExceededError as exc:
            collector.capture(exc)
            return 2, {"kind": "budget", "detail": str(exc)[:240]}
        except ReproError as exc:
            # Under STRICT, library errors surface here: one line, exit 2.
            collector.capture(exc)
            return 2, {"kind": "error",
                       "detail": f"{type(exc).__name__}: {exc}"[:240]}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    policy = DegradationPolicy.coerce(args.policy)
    collector = DiagnosticCollector(policy)
    # Validate the ambient chaos spec up front: a typo'd REPRO_CHAOS is
    # an input error (EXE009, exit 2, one line) — not a traceback from
    # whichever engine happens to read the environment first, and never
    # a silent no-op.
    try:
        from repro.exec.chaos import ChaosPlan

        ChaosPlan.from_env()
    except ChaosSpecError as exc:
        collector.capture(exc, source="REPRO_CHAOS")
        for diagnostic in collector:
            print(diagnostic.format(), file=sys.stderr)
        _write_diagnostics(args.diagnostics, collector)
        return 2
    # The HTML report stitches every layer, so requesting it (like the
    # explain verb) force-enables the whole stack for the run.  The
    # profiler needs spans (phase attribution) and the metrics registry
    # (hot-loop counters), so --profile force-enables both.
    want_all = bool(args.report_html) or args.command == "explain"
    want_profile = bool(getattr(args, "profile", ""))
    tracer = Tracer() if (args.trace or want_all or want_profile) else None
    metrics = MetricsRegistry() \
        if (args.metrics or want_all or want_profile) else None
    ledger = DecisionLedger() \
        if (args.explain or want_all) else None
    profiler = Profiler() if want_profile else None
    # The flight recorder is always on: when a real tracer/ledger is
    # installed it mirrors their events; with no flags it still sees the
    # pipeline's frames through its FlightLedger stand-in, plus the
    # diagnostics/watchdog/chaos chokepoints.  A clean run writes
    # nothing; an abnormal exit flushes blackbox.json.
    recorder = BlackboxRecorder()
    obs = ObsContext.build(tracer=tracer, metrics=metrics, decisions=ledger,
                           profiler=profiler, blackbox=recorder)
    target = _blackbox_target(args)

    def _flush(reason: dict) -> None:
        if target is None:
            return
        if recorder.flush(target, reason=reason, metrics=metrics):
            print(f"wrote {target} (flight recorder; inspect with "
                  f"'repro-merge doctor {target}')", file=sys.stderr)

    previous_handlers = {}
    if _threading.current_thread() is _threading.main_thread():
        def _on_signal(signum, frame):  # noqa: ARG001 — signal signature
            name = _signal.Signals(signum).name
            recorder.record("signal", signal=name)
            _flush({"kind": "signal", "detail": name})
            _signal.signal(signum, _signal.SIG_DFL)
            os.kill(os.getpid(), signum)

        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                previous_handlers[sig] = _signal.signal(sig, _on_signal)
            except (ValueError, OSError):  # pragma: no cover — no tty
                pass
    start = time.perf_counter()
    try:
        with observing(obs):
            obs.profiler.start()
            try:
                code, flush_reason = _run_command(args, policy, collector)
            finally:
                obs.profiler.stop()
        obs.metrics.set_gauge("run.wall_seconds",
                              time.perf_counter() - start)
    except BaseException as exc:
        # An uncaught crash: flush the flight recorder, then let the
        # failure propagate untouched.
        flush_reason = {"kind": "crash",
                        "detail": f"{type(exc).__name__}: {exc}"[:240]}
        _flush(flush_reason)
        raise
    finally:
        for sig, handler in previous_handlers.items():
            try:
                _signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
    if flush_reason is None:
        # cmd_merge marks runs whose groups were demoted by worker
        # crashes or other infrastructure faults.
        flush_reason = getattr(args, "_blackbox_reason", None)
    if flush_reason is not None:
        _flush(flush_reason)
    for diagnostic in collector:
        print(diagnostic.format(), file=sys.stderr)
    _write_diagnostics(args.diagnostics, collector)
    _write_observability(args, tracer, metrics, ledger, profiler=profiler,
                         blackbox_target=target)
    return code


if __name__ == "__main__":
    sys.exit(main())
