"""Bench: fuzz harness throughput and shrinker cost.

Two headline claims about ``repro.fuzz``, each asserted:

1. **smoke viability** — one full battery pass (all five differential
   oracles) over every workload family completes fast enough that the
   CI fuzz smoke covers each family several times inside its 60 s
   budget (floor asserted at >= 0.2 cases/second);
2. **bounded shrinking** — delta-debugging an injected failure stays
   within its predicate-evaluation budget and returns a case no larger
   than the input.

Every seed is a fixed constant, so a run is reproducible.  Headline
gauges snapshot to ``BENCH_fuzz.json`` for run-to-run diffing with
``python -m repro.obs.bench_diff``.
"""

import time

import pytest

from bench_common import once, write_bench_json
from repro.fuzz import BREAK_ENV
from repro.fuzz.generator import fuzz_families, generate_case
from repro.fuzz.oracles import OracleBattery
from repro.fuzz.runner import FuzzConfig, FuzzRunner
from repro.fuzz.shrinker import DEFAULT_BUDGET, shrink_case

#: CI smoke viability floor, in full-battery cases per second.
MIN_CASES_PER_SECOND = 0.2


@pytest.mark.benchmark(group="fuzz")
def test_battery_throughput(benchmark):
    """One battery pass per family; prints the per-family verdict."""
    seed = 17
    battery = OracleBattery(jobs=2)
    families = fuzz_families()

    def sweep():
        verdicts = {}
        for index, family in enumerate(families):
            case = generate_case(seed, index, family)
            verdicts[family] = battery.run(case)
        return verdicts

    started = time.perf_counter()
    verdicts = once(benchmark, sweep)
    elapsed = time.perf_counter() - started
    rate = len(families) / elapsed

    print(f"\nfuzz battery: {len(families)} famil(ies) in "
          f"{elapsed:.2f}s ({rate:.2f} cases/s)")
    for family, verdict in sorted(verdicts.items()):
        state = "ok" if verdict.ok else \
            ("rejected" if verdict.rejected else "VIOLATION")
        print(f"  {family:<20} {state}")
    assert all(v.ok for v in verdicts.values()), \
        "clean pipeline violated an oracle — fuzz found a real bug"
    assert rate >= MIN_CASES_PER_SECOND, \
        f"fuzz throughput {rate:.3f} cases/s below smoke floor"

    write_bench_json("fuzz",
                     cases_per_second=rate,
                     families=len(families),
                     battery_seconds=elapsed)


@pytest.mark.benchmark(group="fuzz")
def test_shrinker_bounded(benchmark, monkeypatch):
    """Shrinking an injected failure respects its evaluation budget."""
    monkeypatch.setenv(BREAK_ENV, "permutation")
    seed = 23
    case = generate_case(seed, 0, "scan-pairs")
    battery = OracleBattery(jobs=2)

    def shrink():
        return shrink_case(case, "permutation", battery)

    started = time.perf_counter()
    minimized = once(benchmark, shrink)
    elapsed = time.perf_counter() - started

    original = sum(len(text) for _, text in case.mode_texts)
    reduced = sum(len(text) for _, text in minimized.mode_texts)
    print(f"\nfuzz shrink: {original} -> {reduced} SDC bytes, "
          f"{len(case.mode_texts)} -> {len(minimized.mode_texts)} "
          f"mode(s) in {elapsed:.2f}s "
          f"(budget {DEFAULT_BUDGET} evaluations)")
    assert reduced <= original
    assert len(minimized.mode_texts) <= len(case.mode_texts)
    # The minimized case must still fail the same oracle.
    verdict = battery.run(minimized, oracles=("permutation",))
    assert not verdict.ok


@pytest.mark.benchmark(group="fuzz")
def test_runner_smoke(benchmark, tmp_path, monkeypatch):
    """A tiny end-to-end loop through the real runner (clean build)."""
    monkeypatch.delenv(BREAK_ENV, raising=False)
    config = FuzzConfig(seed=29,
                        max_cases=len(fuzz_families()),
                        corpus_dir=str(tmp_path / "corpus"))

    outcome = once(benchmark, lambda: FuzzRunner(config).run())
    summary = outcome.payload["summary"]
    print(f"\nfuzz runner: {summary['cases']} case(s), "
          f"{summary['violations']} violation(s), "
          f"{summary['rejected']} rejected in "
          f"{summary['elapsed_seconds']:g}s")
    assert summary["cases"] == len(fuzz_families())
    assert summary["violations"] == 0
