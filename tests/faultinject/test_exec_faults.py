"""Fault injection against the supervised parallel execution engine.

Runs the real merge pipeline (``merge_all`` and the mergeability scan)
at ``jobs=2`` while the chaos harness crashes workers, hangs tasks past
their deadline and corrupts result payloads, and asserts the engine's
core invariant from every angle:

    every injected fault ends in a retry that succeeds or in the plain
    in-process rerun (``EXE004``) — never a hung run, a zombie worker,
    or a corrupted ``MergeResult``.

A task body that raises is the one failure the engine hands back: the
group is demoted (``MRG002``) and the pair recorded non-mergeable.  At
``jobs=1`` there is no worker to strike, and a plan changes nothing.

The last test uses the ambient ``REPRO_CHAOS`` seed (the CI chaos
matrix pins several) and proves seeded chaos perturbs *how* the run
executes, never *what* it produces.
"""

import multiprocessing
import os
import time

import pytest

from repro.core import merge_all, mergeability
from repro.core.mergeability import build_mergeability_graph
from repro.core.merger import MergeOptions
from repro.diagnostics import DegradationPolicy, DiagnosticCollector
from repro.exec.chaos import CHAOS_ENV, CorruptPayload
from repro.sdc import parse_mode
from repro.sdc.writer import write_mode

pytestmark = pytest.mark.faultinject

#: The ambient chaos spec the CI matrix pins, captured before any
#: monkeypatching can clear it.
AMBIENT_SPEC = os.environ.get(CHAOS_ENV, "")

MODE_A = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -to [get_pins rB/D]
set_clock_uncertainty 0.1 [get_clocks CK]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -from [get_pins rA/CP]
set_clock_uncertainty 0.1 [get_clocks CK]
"""

#: Out-of-tolerance clock uncertainty — never mergeable with A/B, so
#: every run carries a second, disjoint group the faults must leave
#: untouched.
MODE_C = """
create_clock -name CK -period 10 [get_ports clk]
set_clock_uncertainty 5 [get_clocks CK]
"""

LENIENT = MergeOptions(policy=DegradationPolicy.LENIENT)


def _modes():
    return [parse_mode(MODE_A, "A"), parse_mode(MODE_B, "B"),
            parse_mode(MODE_C, "C")]


def _snapshot(run):
    """The observable product of a run: per-outcome modes/SDC/errors."""
    return [
        (tuple(o.mode_names),
         write_mode(o.result.merged) if o.result is not None else None,
         o.error)
        for o in run.outcomes
    ]


def _assert_no_children():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def _assert_results_sane(run):
    for outcome in run.outcomes:
        assert not isinstance(outcome.result, CorruptPayload)
        if outcome.result is not None:
            assert not isinstance(outcome.result.merged, CorruptPayload)
            assert write_mode(outcome.result.merged)


@pytest.fixture
def clean_reference(pipeline_netlist, monkeypatch):
    """The uninterrupted serial run every chaos run must reproduce."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    return _snapshot(merge_all(pipeline_netlist, _modes(), LENIENT))


def _chaos_run(netlist, spec, monkeypatch, *, jobs=2, options=None):
    monkeypatch.setenv(CHAOS_ENV, spec)
    collector = DiagnosticCollector()
    run = merge_all(netlist, _modes(), options or LENIENT,
                    collector=collector, jobs=jobs)
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    _assert_no_children()
    _assert_results_sane(run)
    return run, [d.code for d in collector.diagnostics]


class TestInjectedGroupFaults:
    def test_worker_crash_is_retried(self, pipeline_netlist, monkeypatch,
                                     clean_reference):
        run, codes = _chaos_run(pipeline_netlist, "crash@group:A+B@1",
                                monkeypatch)
        assert _snapshot(run) == clean_reference
        assert "EXE002" in codes and "EXE007" in codes

    def test_hang_is_killed_and_retried(self, pipeline_netlist,
                                        monkeypatch, clean_reference):
        # A 1 s budget gives each pooled attempt a 2 * 1 + 1 = 3 s
        # deadline, far short of the 20 s hang.
        options = MergeOptions(policy=DegradationPolicy.LENIENT,
                               budget_seconds=1.0)
        run, codes = _chaos_run(pipeline_netlist, "hang@group:A+B@1@20",
                                monkeypatch, options=options)
        assert _snapshot(run) == clean_reference
        assert "EXE001" in codes

    def test_corrupt_payload_is_rejected(self, pipeline_netlist,
                                         monkeypatch, clean_reference):
        run, codes = _chaos_run(pipeline_netlist, "corrupt@group:A+B@1",
                                monkeypatch)
        assert _snapshot(run) == clean_reference
        assert "EXE003" in codes

    def test_persistent_fault_demotes_cleanly(self, pipeline_netlist,
                                              monkeypatch, clean_reference):
        # Corrupt every pooled attempt: the plain in-process rerun,
        # which chaos cannot strike, rescues the group.
        spec = ";".join(f"corrupt@group:A+B@{a}" for a in (1, 2, 3))
        run, codes = _chaos_run(pipeline_netlist, spec, monkeypatch)
        assert _snapshot(run) == clean_reference
        assert codes.count("EXE003") == 3 and "EXE004" in codes
        # A group task whose body raises is demoted to individual modes
        # (MRG002), and the disjoint group C must be untouched.
        real = mergeability.run_merge_group

        def failing_group(netlist, by_name, names, options, sink):
            if len(names) > 1:
                raise RuntimeError("group merge blew up")
            return real(netlist, by_name, names, options, sink)

        monkeypatch.setattr(mergeability, "run_merge_group", failing_group)
        run, codes = _chaos_run(pipeline_netlist, "", monkeypatch)
        produced = sorted(n for o in run.outcomes for n in o.mode_names)
        assert produced == ["A", "B", "C"]
        singles = {tuple(o.mode_names) for o in run.outcomes}
        assert ("A",) in singles and ("B",) in singles
        assert "MRG002" in codes and "EXE006" not in codes
        # Group C merged on its own, unharmed.
        c_outcome = next(o for o in run.outcomes
                         if tuple(o.mode_names) == ("C",))
        assert c_outcome.result is not None

    def test_serial_run_is_never_struck(self, pipeline_netlist, monkeypatch,
                                        clean_reference):
        # The plan that exhausts a pooled task's attempts: at jobs=1 each
        # group is one plain call, so nothing changes.
        spec = ";".join(f"crash@group:A+B@{a}" for a in (1, 2, 3))
        run, codes = _chaos_run(pipeline_netlist, spec, monkeypatch,
                                jobs=1)
        assert _snapshot(run) == clean_reference
        assert not [code for code in codes if code.startswith("EXE")]


class TestInjectedScanFaults:
    def test_scan_crash_recovers_to_identical_graph(self, pipeline_netlist,
                                                    monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        reference = build_mergeability_graph(pipeline_netlist, _modes())
        monkeypatch.setenv(CHAOS_ENV, "crash@scan:*@1")
        collector = DiagnosticCollector()
        analysis = build_mergeability_graph(
            pipeline_netlist, _modes(), jobs=2, collector=collector)
        _assert_no_children()
        assert analysis.groups == reference.groups
        assert analysis.mergeable_pairs() == reference.mergeable_pairs()
        assert "EXE002" in [d.code for d in collector.diagnostics]

    def test_scan_exhaustion_is_conservative(self, pipeline_netlist,
                                             monkeypatch):
        # A pair check that raises is recorded non-mergeable — the scan
        # never crashes and never guesses.
        real = mergeability.pair_mergeable

        def failing_pair(netlist, a, b, *args):
            if {a.name, b.name} == {"A", "B"}:
                raise RuntimeError("pair check blew up")
            return real(netlist, a, b, *args)

        monkeypatch.setattr(mergeability, "pair_mergeable", failing_pair)
        collector = DiagnosticCollector()
        analysis = build_mergeability_graph(
            pipeline_netlist, _modes(), jobs=2, collector=collector)
        _assert_no_children()
        assert not analysis.mergeable("A", "B")
        assert "mergeability check failed" in analysis.reason("A", "B")
        assert "EXE006" not in [d.code for d in collector.diagnostics]


class TestSeededChaosInvariant:
    def test_seeded_run_is_byte_identical(self, pipeline_netlist,
                                          monkeypatch, clean_reference):
        # The CI chaos matrix pins REPRO_CHAOS seeds; default one here.
        spec = AMBIENT_SPEC or "seed:11:0.3"
        assert spec.startswith("seed:"), \
            "the chaos matrix must use seeded specs"
        run, codes = _chaos_run(pipeline_netlist, spec, monkeypatch)
        assert _snapshot(run) == clean_reference
        assert "EXE007" in codes
        # Seeded faults never fire past attempt 2, so a 3-attempt
        # engine always recovers: no demotions, no failures.
        assert "EXE006" not in codes
