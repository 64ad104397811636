"""Bench: incremental result-cache effectiveness and integrity cost.

Four headline claims about ``repro.cache``, each asserted:

1. **warm speedup** — a warm rerun against a populated cache performs at
   least 5x fewer mock merges (``mergeability.pairs_scanned``) than the
   cold run, and its merged SDC output is byte-identical;
2. **degradation floor** — a fully corrupted store quarantines every
   entry file, re-scans every pair and still produces the cold run's
   bytes exactly;
3. **incrementality** — editing one mode re-scans only that mode's
   pairs and re-merges only its clique; every untouched clique replays
   from the (healed) cache;
4. **layout** — a scan stores its fresh verdicts as one pack: the cold
   run leaves one file in ``pairs/``, the edit a second.

The synthetic workload is ``CLIQUES`` cliques of ``MODES_PER`` modes
over one register pipeline: modes within a clique share a clock and
differ only in false paths (all pairwise mergeable); cliques are
separated by out-of-tolerance clock uncertainties (never mergeable), so
the group structure — and therefore every incremental count below — is
exact, not statistical.  A second bench repeats cold/warm on the paper
suite's design B for a realistic workload.

Headline gauges snapshot to ``BENCH_cache.json`` for run-to-run
diffing with ``python -m repro.obs.bench_diff``.
"""

import time

import pytest

from bench_common import get_workload, once, write_bench_json
from repro.cache import ResultCache
from repro.core.mergeability import merge_all
from repro.core.merger import MergeOptions
from repro.diagnostics import DegradationPolicy, DiagnosticCollector
from repro.exec.chaos import ChaosPlan
from repro.netlist import NetlistBuilder
from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry
from repro.sdc import parse_mode
from repro.sdc.writer import write_mode

CLIQUES = 4
MODES_PER = 4
UNCERTAINTIES = (0.1, 5.0, 50.0, 500.0)  # pairwise out of tolerance

OPTIONS = MergeOptions(policy=DegradationPolicy.LENIENT)


def _netlist():
    registers = CLIQUES * MODES_PER + 1
    b = NetlistBuilder("cachebench")
    b.inputs("clk", "in1")
    previous = "in1"
    for index in range(registers):
        reg = b.dff(f"r{index}", d=previous, clk="clk")
        previous = reg.q
    b.output("out1", previous)
    return b.build()


def _mode(clique, member, target):
    return parse_mode(
        f"create_clock -name CK -period 10 [get_ports clk]\n"
        f"set_clock_uncertainty {UNCERTAINTIES[clique]} [get_clocks CK]\n"
        f"set_false_path -to [get_pins r{target}/D]\n",
        f"c{clique}m{member}")


def _modes():
    return [_mode(clique, member, clique * MODES_PER + member)
            for clique in range(CLIQUES)
            for member in range(MODES_PER)]


def _run(netlist, modes, cache_root):
    """One cached merge with its own metrics registry; returns both."""
    registry = MetricsRegistry()
    collector = DiagnosticCollector()
    cache = ResultCache.open(cache_root, collector=collector,
                             chaos=ChaosPlan())
    with observing(metrics=registry):
        start = time.perf_counter()
        run = merge_all(netlist, modes, OPTIONS, collector=collector,
                        cache=cache)
        elapsed = time.perf_counter() - start
    cache.flush_stats()
    return run, registry.to_dict()["counters"], elapsed


def _pair_files(cache_root):
    return len(list((cache_root / "pairs").glob("*.json")))


def _snapshot(run):
    """The observable product of a run: per-outcome modes/SDC/errors."""
    return sorted(
        (tuple(o.mode_names),
         write_mode(o.result.merged) if o.result is not None else None,
         o.error)
        for o in run.outcomes)


@pytest.mark.benchmark(group="cache")
def test_cache_cold_warm_edit_corrupt(benchmark, tmp_path):
    netlist = _netlist()
    modes = _modes()
    total_pairs = len(modes) * (len(modes) - 1) // 2
    croot = tmp_path / "cache"

    def flow():
        cold = _run(netlist, modes, croot)
        warm = _run(netlist, modes, croot)
        return cold, warm

    (cold_run, cold_counters, cold_s), \
        (warm_run, warm_counters, warm_s) = once(benchmark, flow)

    cold_scanned = cold_counters["mergeability.pairs_scanned"]
    warm_scanned = warm_counters.get("mergeability.pairs_scanned", 0)
    assert cold_scanned == total_pairs
    assert _pair_files(croot) == 1  # one pack holds every verdict
    # The acceptance criterion: >= 5x fewer mock merges when warm.
    assert warm_scanned * 5 <= cold_scanned, \
        f"warm rerun scanned {warm_scanned}/{cold_scanned} pairs"
    assert warm_counters["cache.group_hits"] == CLIQUES
    reference = _snapshot(cold_run)
    assert _snapshot(warm_run) == reference

    # Corrupt every entry file: the run quarantines each one, re-scans
    # every pair and degrades to the uncached pipeline — byte-identical
    # to cold, never a crash.  Its stores heal the cache.
    poisoned = 0
    for entry in sorted(croot.rglob("*.json")):
        if entry.parent.name in ("pairs", "groups"):
            entry.write_bytes(entry.read_bytes()[:-25])
            poisoned += 1
    corrupt_run, corrupt_counters, _ = _run(netlist, modes, croot)
    assert poisoned == 1 + CLIQUES
    assert corrupt_counters["cache.quarantined"] == poisoned
    assert corrupt_counters["mergeability.pairs_scanned"] == total_pairs
    assert _snapshot(corrupt_run) == reference

    # One-mode edit: same verdicts (false paths stay mergeable), so
    # exactly the edited mode's pairs re-scan, into a second pack, and
    # only its clique re-merges; the other cliques replay from the cache.
    edited = list(modes)
    edited[0] = _mode(0, 0, CLIQUES * MODES_PER)
    edit_run, edit_counters, _ = _run(netlist, edited, croot)
    assert edit_counters["mergeability.pairs_scanned"] == len(modes) - 1
    assert edit_counters["cache.pair_hits"] \
        == total_pairs - (len(modes) - 1)
    assert edit_counters["cache.group_hits"] == CLIQUES - 1
    pair_files = _pair_files(croot)
    assert pair_files == 2

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"\ncache: cold {cold_scanned} pairs in {cold_s:.3f}s, "
          f"warm {warm_scanned} pairs in {warm_s:.3f}s "
          f"({speedup:.1f}x), corrupt run quarantined {poisoned} "
          f"entries, edit re-scanned {len(modes) - 1}, "
          f"{pair_files} pair pack(s)")
    write_bench_json("cache",
                     cold_pairs_scanned=cold_scanned,
                     warm_pairs_scanned=warm_scanned,
                     edit_pairs_scanned=len(modes) - 1,
                     cold_seconds=cold_s,
                     warm_seconds=warm_s,
                     quarantined_entries=poisoned,
                     pair_files=pair_files)


@pytest.mark.benchmark(group="cache")
def test_cache_warm_rerun_design_b(benchmark, tmp_path):
    """Cold/warm on the paper suite's design B: a realistic workload
    still replays entirely from the cache.  Keys are SHA-256 content
    hashes of the canonical netlist and SDC text, so they would match
    across interpreters too."""
    workload = get_workload("B")
    croot = tmp_path / "cache-b"

    def flow():
        cold = _run(workload.netlist, workload.modes, croot)
        warm = _run(workload.netlist, workload.modes, croot)
        return cold, warm

    (cold_run, cold_counters, cold_s), \
        (warm_run, warm_counters, warm_s) = once(benchmark, flow)
    cold_scanned = cold_counters["mergeability.pairs_scanned"]
    warm_scanned = warm_counters.get("mergeability.pairs_scanned", 0)
    assert cold_scanned > 0
    assert warm_scanned * 5 <= cold_scanned
    assert _snapshot(warm_run) == _snapshot(cold_run)
    print(f"\ncache[design B]: "
          f"cold {cold_scanned} pairs in {cold_s:.3f}s, "
          f"warm {warm_scanned} in {warm_s:.3f}s")
    write_bench_json("cache_design_b",
                     cold_pairs_scanned=cold_scanned,
                     warm_pairs_scanned=warm_scanned,
                     cold_seconds=cold_s,
                     warm_seconds=warm_s)
