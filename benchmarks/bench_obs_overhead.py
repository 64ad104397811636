"""Bench: cost of the observability layer (repro.obs).

Three numbers back the design claim that instrumentation is free when
nobody is collecting and cheap when everybody is:

1. the per-call cost of the disabled (null-context) tracer/metrics,
   multiplied by a generous over-count of the instrumentation calls one
   merge run makes — an empirical upper bound on the disabled overhead
   of the scenario-reduction workload (<2% acceptance criterion);
2. the wall-clock ratio of a fully traced + metered run against the
   default run, reported for shape;
3. the median full-stack overhead (trace + metrics + decision ledger,
   everything ``--report-html`` enables) against the default run, which
   must stay under 10% on the generated workload;
4. the always-on flight recorder (repro.obs.blackbox): the per-event
   cost of a frame through ``ObsContext.frame`` times a generous
   over-count of the events one run produces must stay under the same
   2% disabled-layer bound — the recorder runs on EVERY run, so this
   bound is what keeps "always on" an honest claim.
"""

import time

import pytest

from repro.core import merge_all
from repro.obs.blackbox import BlackboxRecorder
from repro.obs.context import ObsContext, current, observing
from repro.obs.explain import DecisionLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.workloads import figure2_modes, generate


@pytest.fixture(scope="module")
def workload():
    return generate(figure2_modes())


def test_disabled_overhead_bound(benchmark, workload):
    # Baseline: the instrumented pipeline with the default null context.
    def run():
        return merge_all(workload.netlist, workload.modes)

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    base_seconds = time.perf_counter() - start

    # Count what one run actually emits when everything is enabled.
    tracer = Tracer()
    registry = MetricsRegistry()
    with observing(tracer=tracer, metrics=registry):
        run()
    spans = sum(1 for root in tracer.roots for _ in root.walk())
    metric_names = len(registry.names())

    # Per-call cost of the disabled layer, measured in a tight loop.
    null = current()
    null_tracer, null_metrics = null.tracer, null.metrics
    null_ledger, null_profiler = null.decisions, null.profiler
    assert not null_tracer.enabled and not null_metrics.enabled \
        and not null_ledger.enabled and not null_profiler.enabled
    n = 100_000
    start = time.perf_counter()
    for _ in range(n):
        with null_tracer.span("x"):
            null_metrics.inc("merge.runs")
            null_ledger.decide("mergeability.pair", "x")
            if current().profiler.enabled:  # the hot-loop counter pattern
                null_metrics.inc("profile.mock_merges")
    per_call = (time.perf_counter() - start) / n

    # 10x margin over the observed span count dwarfs any miscount of
    # metric-only call sites.
    calls = (spans + metric_names) * 10
    overhead = calls * per_call
    print(f"\nnull tracer+metrics: {per_call * 1e9:.0f} ns/call, "
          f"{spans} spans + {metric_names} metric names per run; "
          f"bound {overhead * 1e3:.3f} ms vs run "
          f"{base_seconds * 1e3:.0f} ms "
          f"({100 * overhead / base_seconds:.3f}%)")
    assert overhead < 0.02 * base_seconds


def test_always_on_recorder_overhead_bound(benchmark, workload):
    """The flight recorder's per-event cost stays under 2% of a run.

    The recorder sees frame opens/closes (O(groups), through
    ``ObsContext.frame``), diagnostics, chaos strikes, and state
    notes — NOT the O(pairs) leaf decisions, which stay behind
    ``ledger.enabled`` guards.  Bound the whole-run cost by the
    recorded-event count (with a 10x miscount margin) times the
    measured per-event cost.
    """
    def run():
        return merge_all(workload.netlist, workload.modes)

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    base_seconds = time.perf_counter() - start

    # Count what one run actually records with the recorder installed.
    counting = BlackboxRecorder()
    with observing(ObsContext.build(blackbox=counting)):
        run()
    events = counting._seq

    # Per-event cost: one region through ObsContext.frame on a
    # recorder-only context, the path every pipeline region of every
    # CLI run takes.
    obs = ObsContext.build(blackbox=BlackboxRecorder())
    modes = ["a", "b"]
    n = 50_000
    start = time.perf_counter()
    for _ in range(n):
        with obs.frame("merge.step", "step:bench", span="step:bench",
                       modes=modes):
            pass
    per_event = (time.perf_counter() - start) / n / 2  # open + close

    overhead = max(events, 1) * 10 * per_event
    print(f"\nflight recorder: {per_event * 1e9:.0f} ns/event, "
          f"{events} events per run; bound {overhead * 1e3:.3f} ms vs "
          f"run {base_seconds * 1e3:.0f} ms "
          f"({100 * overhead / base_seconds:.3f}%)")
    assert overhead < 0.02 * base_seconds


def test_enabled_overhead_ratio(benchmark, workload):
    def run():
        return merge_all(workload.netlist, workload.modes)

    run()  # warm caches so the two timed runs are comparable
    start = time.perf_counter()
    run()
    base = time.perf_counter() - start

    def traced():
        with observing(tracer=Tracer(), metrics=MetricsRegistry()):
            return run()

    start = time.perf_counter()
    benchmark.pedantic(traced, rounds=1, iterations=1, warmup_rounds=0)
    enabled = time.perf_counter() - start
    print(f"\nenabled observability: {base * 1e3:.0f} ms -> "
          f"{enabled * 1e3:.0f} ms ({enabled / base:.2f}x)")
    # Even fully enabled, the layer must stay far from dominating.
    assert enabled < 2.0 * base


def test_enabled_full_stack_overhead_bound(benchmark, workload):
    """The whole stack on (trace + metrics + decisions) costs <10%.

    This is the configuration ``--report-html`` enables.  Median of
    several interleaved timed runs on both sides so a single scheduler
    hiccup cannot fail (or pass) the bound.
    """
    def run():
        return merge_all(workload.netlist, workload.modes)

    def full_stack():
        with observing(ObsContext.build(tracer=Tracer(),
                                        metrics=MetricsRegistry(),
                                        decisions=DecisionLedger())):
            return run()

    run()        # warm caches
    full_stack()
    rounds = 5
    base_times = []
    full_times = []
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        base_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        full_stack()
        full_times.append(time.perf_counter() - start)
    benchmark.pedantic(full_stack, rounds=1, iterations=1, warmup_rounds=0)
    base = sorted(base_times)[rounds // 2]
    full = sorted(full_times)[rounds // 2]
    overhead = (full - base) / base
    print(f"\nfull observability stack: median {base * 1e3:.1f} ms -> "
          f"{full * 1e3:.1f} ms ({100 * overhead:+.1f}%)")
    assert overhead < 0.10
