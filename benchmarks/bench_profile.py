"""Bench: the first profiler-driven benchmark (``repro.obs.profile``).

Runs one fully profiled merge — span listener attached, hot-loop
counters on — and snapshots *where the time went* into
``BENCH_profile.json``: total profiled seconds, per-phase self time and
the top functions' self time.  Trend analytics over these snapshots
(``python -m repro.obs.trends``) then shows which *phase or function*
regressed, not just that the wall-clock did.

Also asserts the profile artifact's internal consistency: it must pass
``validate_profile`` and every phase's self time must be bounded by the
profiled wall-clock.
"""

import re

import pytest

from bench_common import write_bench_json
from repro.core import merge_all
from repro.obs.context import ObsContext, observing
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PHASES, Profiler
from repro.obs.trace import Tracer
from repro.obs.validate import validate_profile
from repro.workloads import figure2_modes, generate


@pytest.fixture(scope="module")
def workload():
    return generate(figure2_modes())


def _gauge_name(function_key: str) -> str:
    """``/a/b/merger.py:88:merge_pair`` -> ``fn_merger_merge_pair``."""
    parts = function_key.rsplit(":", 2)
    if len(parts) == 3:
        stem = parts[0].rsplit("/", 1)[-1].rsplit(".", 1)[0]
        label = f"{stem}_{parts[2]}"
    else:
        label = function_key
    return "fn_" + re.sub(r"[^0-9A-Za-z]+", "_", label).strip("_")


def test_profiled_merge_snapshot(benchmark, workload):
    tracer = Tracer()
    registry = MetricsRegistry()
    profiler = Profiler()
    obs = ObsContext.build(tracer=tracer, metrics=registry,
                           profiler=profiler)

    def profiled_run():
        profiler.start()
        try:
            with observing(obs):
                return merge_all(workload.netlist, workload.modes)
        finally:
            profiler.stop()

    run = benchmark.pedantic(profiled_run, rounds=1, iterations=1,
                             warmup_rounds=0)
    assert run.outcomes

    export = profiler.export(tracer=tracer, metrics=registry)
    import json

    assert validate_profile(json.dumps(export)) == []
    assert export["counters"].get("profile.mock_merges", 0) > 0

    gauges = {"total_seconds": export["total_seconds"]}
    all_functions = []
    for phase, entry in export["phases"].items():
        if phase in PHASES:
            # Phase self time is bounded by the profiled wall-clock
            # (generous 1.5x slack: cProfile inlinetime over-counts
            # relative to wall time under heavy call churn).
            assert entry["self_seconds"] <= export["total_seconds"] * 1.5
        gauges[f"{phase}_self_seconds"] = entry["self_seconds"]
        all_functions.extend(entry["top_functions"])
    all_functions.sort(key=lambda row: -row["self_s"])
    for row in all_functions[:5]:
        gauges.setdefault(f"{_gauge_name(row['function'])}_self_seconds",
                          row["self_s"])
    write_bench_json("profile", **gauges)
    print(f"\nprofiled merge: {export['total_seconds'] * 1e3:.1f} ms, "
          f"phases: " + ", ".join(
              f"{phase}={entry['self_seconds'] * 1e3:.1f}ms"
              for phase, entry in sorted(export["phases"].items())))
