"""Unit tests for steps 3.1.3-3.1.7: external delays, case analysis,
disable timing, drive/load, clock exclusivity."""

import pytest

from repro.core import (
    merge_case_analysis,
    merge_clock_exclusivity,
    merge_clocks,
    merge_disable_timing,
    merge_drive_load,
    merge_external_delays,
)
from repro.core.steps import MergeContext
from repro.sdc import (
    SetCaseAnalysis,
    SetClockGroups,
    SetDisableTiming,
    SetFalsePath,
    SetInputDelay,
    SetInputTransition,
    parse_mode,
)


def context_for(netlist, *sdcs):
    modes = [parse_mode(text, f"m{i}") for i, text in enumerate(sdcs)]
    ctx = MergeContext(netlist, modes)
    merge_clocks(ctx)
    return ctx


CLK = "create_clock -name c -period 10 [get_ports clk]\n"


class TestExternalDelays:
    def test_union_of_unique(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            CLK + "set_input_delay 1 -clock c [get_ports in1]",
            CLK + "set_input_delay 2 -clock c [get_ports in1]",
        )
        merge_external_delays(ctx)
        delays = ctx.merged.of_type(SetInputDelay)
        assert {d.value for d in delays} == {1.0, 2.0}

    def test_identical_deduped(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            CLK + "set_input_delay 1 -clock c [get_ports in1]",
            CLK + "set_input_delay 1 -clock c [get_ports in1]",
        )
        merge_external_delays(ctx)
        assert len(ctx.merged.of_type(SetInputDelay)) == 1

    def test_second_clock_gets_add_delay(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "create_clock -name a -period 2 [get_ports clk]\n"
            "set_input_delay 1 -clock a [get_ports in1]",
            "create_clock -name b -period 1 [get_ports clk]\n"
            "set_input_delay 1 -clock b [get_ports in1]",
        )
        merge_external_delays(ctx)
        delays = ctx.merged.of_type(SetInputDelay)
        assert [d.add_delay for d in delays] == [False, True]


class TestCaseAnalysis:
    def test_agreeing_case_kept(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "set_case_analysis 0 [get_ports in1]",
            "set_case_analysis 0 [get_ports in1]",
        )
        merge_case_analysis(ctx)
        assert len(ctx.merged.of_type(SetCaseAnalysis)) == 1

    def test_conflicting_case_translates_to_false_path(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "set_case_analysis 0 [get_ports in1]",
            "set_case_analysis 1 [get_ports in1]",
        )
        report = merge_case_analysis(ctx)
        assert not ctx.merged.of_type(SetCaseAnalysis)
        fps = ctx.merged.of_type(SetFalsePath)
        assert len(fps) == 1
        assert fps[0].spec.through_refs[0].patterns == ("in1",)
        assert len(report.dropped) == 2
        assert len(ctx.dropped_cases) == 2

    def test_subset_case_dropped(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "set_case_analysis 0 [get_ports in1]",
            CLK,
        )
        report = merge_case_analysis(ctx)
        assert not ctx.merged.of_type(SetCaseAnalysis)
        assert not ctx.merged.of_type(SetFalsePath)
        assert ctx.dropped_cases


class TestDisableTiming:
    def test_common_kept(self, pipeline_netlist):
        text = "set_disable_timing [get_cells inv1]"
        ctx = context_for(pipeline_netlist, text, text)
        merge_disable_timing(ctx)
        assert len(ctx.merged.of_type(SetDisableTiming)) == 1

    def test_subset_dropped(self, pipeline_netlist):
        ctx = context_for(pipeline_netlist,
                          "set_disable_timing [get_cells inv1]", CLK)
        report = merge_disable_timing(ctx)
        assert not ctx.merged.of_type(SetDisableTiming)
        assert report.dropped


class TestDriveLoad:
    def test_common_within_tolerance(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "set_input_transition 0.20 [get_ports in1]",
            "set_input_transition 0.21 [get_ports in1]",
        )
        report = merge_drive_load(ctx)
        rows = ctx.merged.of_type(SetInputTransition)
        assert len(rows) == 1 and rows[0].value == pytest.approx(0.21)
        assert not report.conflicts

    def test_out_of_tolerance_conflicts(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "set_input_transition 0.1 [get_ports in1]",
            "set_input_transition 0.5 [get_ports in1]",
        )
        report = merge_drive_load(ctx)
        assert report.conflicts

    def test_missing_in_one_mode_conflicts(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "set_load 0.05 [get_ports out1]",
            CLK,
        )
        report = merge_drive_load(ctx)
        assert report.conflicts

    def test_driving_cell_mismatch_conflicts(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "set_driving_cell -lib_cell BUFX2 [get_ports in1]",
            "set_driving_cell -lib_cell BUFX8 [get_ports in1]",
        )
        report = merge_drive_load(ctx)
        assert report.conflicts


class TestClockExclusivity:
    def test_clocks_from_different_modes_exclusive(self, pipeline_netlist):
        ctx = context_for(
            pipeline_netlist,
            "create_clock -name a -period 10 [get_ports clk]",
            "create_clock -name b -period 5 [get_ports clk]",
        )
        report = merge_clock_exclusivity(ctx)
        groups = ctx.merged.of_type(SetClockGroups)
        assert len(groups) == 1
        assert groups[0].groups == (("a",), ("b",))

    def test_coexisting_clocks_not_exclusive(self, pipeline_netlist):
        text = ("create_clock -name a -period 10 [get_ports clk]\n"
                "create_clock -name b -period 5 -add [get_ports clk]")
        ctx = context_for(pipeline_netlist, text, text)
        merge_clock_exclusivity(ctx)
        assert not ctx.merged.of_type(SetClockGroups)

    def test_mode_internal_exclusivity_respected(self, pipeline_netlist):
        text = ("create_clock -name a -period 10 [get_ports clk]\n"
                "create_clock -name b -period 5 -add [get_ports clk]\n"
                "set_clock_groups -physically_exclusive -group {a} -group {b}")
        ctx = context_for(pipeline_netlist, text, text)
        merge_clock_exclusivity(ctx)
        groups = ctx.merged.of_type(SetClockGroups)
        assert len(groups) == 1  # a/b never coexist -> exclusive in merge

    def test_mixed_coexistence_wins(self, pipeline_netlist):
        """If any mode lets the pair coexist, no exclusivity is added."""
        coexist = ("create_clock -name a -period 10 [get_ports clk]\n"
                   "create_clock -name b -period 5 -add [get_ports clk]")
        separate = ("create_clock -name a -period 10 [get_ports clk]\n"
                    "create_clock -name b -period 5 -add [get_ports clk]\n"
                    "set_clock_groups -physically_exclusive -group {a} "
                    "-group {b}")
        ctx = context_for(pipeline_netlist, coexist, separate)
        merge_clock_exclusivity(ctx)
        assert not ctx.merged.of_type(SetClockGroups)
