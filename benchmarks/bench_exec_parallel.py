"""Bench: supervised parallel execution of the mergeability scan.

Two numbers back the execution engine's design claims:

1. **supervision overhead** — running the scan's pair checks through
   ``Supervisor(jobs=1)`` (one plain call per task plus the per-task
   bookkeeping: outcome, ``exec.task_seconds``, ordered flush) must cost
   under 5% over a bare serial loop calling the same function on the
   same tasks;
2. **parallel speedup** — ``jobs=2`` over forked workers against the
   supervised serial run, reported for shape.  The bound is deliberately
   lenient: CI machines often pin this suite to two cores, where the
   supervising parent competes with its own workers, so the hard
   assertion is only that supervision never *loses* significant wall
   clock — correctness (identical verdicts at any job count) is the
   invariant that must hold exactly.
"""

import time

import pytest

from bench_common import get_workload, once, paired_ratio, \
    write_bench_json
from repro.core import mergeability
from repro.core.merger import MergeOptions
from repro.exec import ChaosPlan, Supervisor, SupervisorConfig

#: Generated design C: 12 modes -> 66 pair checks on a multi-domain
#: netlist, 22 of them mock merges (~0.1 s of warm scan work at scale 1.0).
DESIGN = "C"


@pytest.fixture(scope="module")
def scan_workload():
    workload = get_workload(DESIGN)
    modes = list(workload.modes)
    options = MergeOptions()
    pairs = [(i, j) for i in range(len(modes))
             for j in range(i + 1, len(modes))]
    tables = mergeability._mode_tables(workload.netlist, modes, pairs)

    def check(pair):
        # The scan's own task: one pair decided on its two tables.  The
        # forked workers inherit this closure, as they do the scan's.
        i, j = pair
        ok, reason = mergeability.pair_mergeable(
            workload.netlist, modes[i], modes[j], options,
            (tables[i], tables[j]))
        return i, j, ok, reason

    return check, pairs


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _engine_run(jobs, check, pairs):
    # An empty plan keeps an ambient REPRO_CHAOS out of the pooled runs.
    supervisor = Supervisor(SupervisorConfig(jobs=jobs, chaos=ChaosPlan()))
    return supervisor.run(check, [(pair,) for pair in pairs],
                          label="bench.scan")


def test_supervision_overhead_bound(benchmark, scan_workload):
    check, pairs = scan_workload

    def bare():
        return [check(pair) for pair in pairs]

    def supervised():
        return _engine_run(1, check, pairs)

    # Same verdicts, same order, before any timing matters.
    assert [o.value for o in supervised()] == bare()

    ratio, bare_s, supervised_s = paired_ratio(bare, supervised, 15)
    overhead = ratio - 1.0

    print(f"\nbare loop:   {bare_s * 1000:8.1f} ms ({len(pairs)} pairs)")
    print(f"supervised:  {supervised_s * 1000:8.1f} ms")
    print(f"overhead:    {overhead * 100:8.2f} %")
    assert overhead < 0.05, (
        f"supervision costs {overhead:.1%} over a bare serial loop "
        f"(budget: 5%)")

    write_bench_json("exec_overhead",
                     pairs_checked=len(pairs),
                     bare_seconds=bare_s,
                     supervised_seconds=supervised_s,
                     overhead_ratio=ratio)

    once(benchmark, supervised)


def test_parallel_scan_speedup(benchmark, scan_workload):
    check, pairs = scan_workload

    serial = _engine_run(1, check, pairs)
    serial_s = _best_of(lambda: _engine_run(1, check, pairs))
    parallel_s = _best_of(lambda: _engine_run(2, check, pairs))
    parallel = _engine_run(2, check, pairs)

    # The headline invariant: verdicts are identical at any job count.
    assert [o.value for o in parallel] == [o.value for o in serial]

    speedup = serial_s / parallel_s
    print(f"\nserial (jobs=1):   {serial_s * 1000:8.1f} ms")
    print(f"parallel (jobs=2): {parallel_s * 1000:8.1f} ms")
    print(f"speedup:           {speedup:8.2f}x")
    # Only a catastrophic-regression floor: a respawn storm or an
    # accidentally serialized pool shows up as many-x slower, while an
    # honest 2-core box under CI load can legitimately land near 1x.
    assert speedup > 0.33, (
        f"jobs=2 ran {1 / speedup:.2f}x slower than serial")

    write_bench_json("exec_parallel",
                     pairs_checked=len(pairs),
                     serial_seconds=serial_s,
                     parallel_seconds=parallel_s,
                     speedup_jobs2=speedup)

    once(benchmark, lambda: _engine_run(2, check, pairs))
