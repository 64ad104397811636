"""The table pre-check of the mergeability scan against its reference.

``pair_mergeable`` rejects most pairs from per-mode tables without a mock
merge.  Its contract: the same verdicts and reason strings as the full
``_preliminary_merge`` mock merge plus the clock-blocking check.
"""

import pytest

from repro.core.mergeability import (
    ModeTable,
    _preliminary_merge,
    clock_blocking_reason,
    pair_mergeable,
    table_conflict,
)
from repro.core.merger import MergeOptions
from repro.obs.explain import muted
from repro.sdc import parse_mode
from repro.workloads.designs import load_design
from repro.workloads.families import build_family, family_names

CLK = "create_clock -name c -period 10 [get_ports clk]\n"
OPTIONS = MergeOptions()


def mock_merge_verdict(netlist, mode_a, mode_b):
    """The reference verdict: mock-merge the pair, then check blocking."""
    with muted():
        try:
            context = _preliminary_merge(netlist, [mode_a, mode_b], OPTIONS)
        except Exception as exc:
            return False, f"preliminary merge failed: {exc}"
        conflicts = context.all_conflicts()
        if conflicts:
            return False, str(conflicts[0])
        blocked = clock_blocking_reason(context)
    return (False, blocked) if blocked else (True, "")


def assert_pairs_match(netlist, modes, pairs):
    tables = [ModeTable(netlist, mode) for mode in modes]
    verdicts = {True: 0, False: 0}
    for i, j in pairs:
        expected = mock_merge_verdict(netlist, modes[i], modes[j])
        got = pair_mergeable(netlist, modes[i], modes[j], OPTIONS,
                             (tables[i], tables[j]))
        assert got == expected, (modes[i].name, modes[j].name)
        verdicts[got[0]] += 1
    return verdicts


def all_pairs(count):
    return [(i, j) for i in range(count) for j in range(i + 1, count)]


class TestAgainstMockMerge:
    def test_design_a_sampled(self):
        design = load_design("A")
        pairs = all_pairs(len(design.modes))[::29]
        verdicts = assert_pairs_match(design.netlist, design.modes, pairs)
        # The sample holds both verdicts: the tables reject most pairs,
        # and the accepted ones went through the mock merge.
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("letter", "BCDEF")
    def test_designs_b_to_f(self, letter):
        design = load_design(letter)
        assert_pairs_match(design.netlist, design.modes,
                           all_pairs(len(design.modes)))

    @pytest.mark.parametrize("family", family_names())
    def test_families(self, family):
        for seed in range(5):
            design = build_family(family, seed)
            assert_pairs_match(design.netlist, design.modes,
                               all_pairs(len(design.modes)))


def verdicts(netlist, text_a, text_b):
    """(pre-check reason, reference reason) for two modes given as SDC."""
    mode_a = parse_mode(CLK + text_a, "A")
    mode_b = parse_mode(CLK + text_b, "B")
    conflict = table_conflict(
        (ModeTable(netlist, mode_a), ModeTable(netlist, mode_b)),
        OPTIONS.tolerance)
    got = pair_mergeable(netlist, mode_a, mode_b)
    assert got == mock_merge_verdict(netlist, mode_a, mode_b)
    assert conflict is not None and got == (False, str(conflict))
    return got[1]


class TestRulesNoWorkloadHits:
    def test_clock_constraint_tolerance(self, pipeline_netlist):
        reason = verdicts(pipeline_netlist,
                          "set_clock_uncertainty 0.1 [get_clocks c]",
                          "set_clock_uncertainty 0.5 [get_clocks c]")
        assert reason.startswith("[A, B] set_clock_uncertainty values "
                                 "[0.1, 0.5] exceed tolerance 10%")

    def test_partial_propagated_clock(self, pipeline_netlist):
        reason = verdicts(pipeline_netlist,
                          "set_propagated_clock [get_clocks c]", "")
        assert reason == ("[A, B] set_propagated_clock on ['c'] missing "
                          "in modes ['B']")

    def test_missing_drive_load_key(self, pipeline_netlist):
        reason = verdicts(pipeline_netlist, "",
                          "set_load 0.2 [get_ports out1]")
        assert reason == ("[A, B] set_load on [get_ports {out1}] missing "
                          "in modes ['A']")

    def test_driving_cell_mismatch(self, pipeline_netlist):
        # The cell is part of the constraint's identity, so two cells on
        # one port are two constraints, each missing in the other mode.
        reason = verdicts(
            pipeline_netlist,
            "set_driving_cell -lib_cell BUF [get_ports in1]",
            "set_driving_cell -lib_cell INV [get_ports in1]")
        assert reason == ("[A, B] set_driving_cell on [get_ports {in1}] "
                          "missing in modes ['B']")

    def test_non_uniquifiable_multicycle_path(self, pipeline_netlist):
        reason = verdicts(pipeline_netlist,
                          "set_multicycle_path 2 -to [get_pins rB/D]", "")
        assert reason == ("[A, B] set_multicycle_path of modes ['A'] not "
                          "uniquifiable and not recoverable by false paths "
                          "alone")

    def test_first_conflicting_step_names_the_reason(self, pipeline_netlist):
        # Drive/load (3.1.6) and exceptions (3.1.9) conflict too; the
        # clock-constraint step (3.1.2) runs first and gives the reason.
        reason = verdicts(
            pipeline_netlist,
            "set_clock_latency 1.0 [get_clocks c]\n"
            "set_input_transition 0.1 [get_ports in1]\n"
            "set_multicycle_path 2 -to [get_pins rB/D]",
            "set_clock_latency 3.0 [get_clocks c]\n"
            "set_input_transition 0.9 [get_ports in1]")
        assert "set_clock_latency values [1.0, 3.0]" in reason

    def test_conflict_free_pair_reaches_the_mock_merge(
            self, pipeline_netlist):
        mode_a = parse_mode(CLK + "set_false_path -to [get_pins rB/D]", "A")
        mode_b = parse_mode(CLK, "B")
        tables = (ModeTable(pipeline_netlist, mode_a),
                  ModeTable(pipeline_netlist, mode_b))
        assert table_conflict(tables, OPTIONS.tolerance) is None
        assert pair_mergeable(pipeline_netlist, mode_a, mode_b) == (True, "")


class TestFailures:
    def test_refinement_failure_is_named(self, pipeline_netlist):
        # A one-edge waveform passes the constraint steps and fails when
        # clock refinement binds the modes to the design.
        mode_a = parse_mode(
            "create_clock -name c -period 10 -waveform {0} [get_ports clk]",
            "A")
        mode_b = parse_mode(CLK, "B")
        ok, reason = pair_mergeable(pipeline_netlist, mode_a, mode_b)
        assert not ok
        assert reason.startswith("clock refinement failed: ")

    def test_unbuildable_table_falls_back_to_the_mock_merge(
            self, pipeline_netlist):
        mode_a = parse_mode(CLK, "A")
        mode_b = parse_mode(CLK, "B")
        ok, reason = pair_mergeable(pipeline_netlist, mode_a, mode_b,
                                    tables=(None, None))
        assert (ok, reason) == (True, "")
