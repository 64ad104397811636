"""Unit tests for the no-merge and naive-union baselines."""

from repro.baselines import naive_merge, run_sta_all_modes
from repro.core import check_mode_equivalence, merge_modes
from repro.sdc import parse_mode

CLK = "create_clock -name c -period 10 [get_ports clk]\n"


class TestNoMergeBaseline:
    def test_per_mode_results(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"),
                 parse_mode(CLK.replace("10", "5"), "B")]
        result = run_sta_all_modes(pipeline_netlist, modes)
        assert result.mode_count == 2
        assert result.total_runtime_seconds > 0

    def test_worst_slack_is_minimum(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"),
                 parse_mode(CLK.replace("10", "5"), "B")]
        result = run_sta_all_modes(pipeline_netlist, modes)
        worst = result.worst_endpoint_slacks()
        per_mode = [r.endpoint_slacks["rB/D"].slack for r in result.results]
        assert worst["rB/D"] == min(per_mode)

    def test_capture_periods_follow_worst(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"),
                 parse_mode(CLK.replace("10", "5"), "B")]
        result = run_sta_all_modes(pipeline_netlist, modes)
        # Worst slack comes from the period-5 mode.
        assert result.capture_periods()["rB/D"] == 5.0


class TestNaiveUnionBaseline:
    def test_concatenates_constraints(self, pipeline_netlist):
        modes = [
            parse_mode(CLK + "set_input_delay 1 -clock c [get_ports in1]", "A"),
            parse_mode(CLK + "set_input_delay 2 -clock c [get_ports in1]", "B"),
        ]
        result = naive_merge(pipeline_netlist, modes)
        assert len(result.merged.clocks()) == 1
        assert len(result.merged.input_delays()) == 2

    def test_conflicting_cases_dropped(self, pipeline_netlist):
        modes = [
            parse_mode("set_case_analysis 0 [get_ports in1]", "A"),
            parse_mode("set_case_analysis 1 [get_ports in1]", "B"),
        ]
        result = naive_merge(pipeline_netlist, modes)
        assert not result.merged.case_analyses()
        assert len(result.dropped) >= 1

    def test_naive_merge_fails_equivalence_where_paper_flow_passes(
            self, pipeline_netlist):
        """The motivating comparison: a mode-specific false path is unioned
        naively and falsifies paths the other mode times."""
        modes = [
            parse_mode(CLK + "set_false_path -to [get_pins rB/D]", "A"),
            parse_mode(CLK, "B"),
        ]
        naive = naive_merge(pipeline_netlist, modes)
        naive_report = check_mode_equivalence(
            pipeline_netlist, modes, naive.merged,
            clock_maps=naive.clock_maps)
        assert not naive_report.equivalent

        proper = merge_modes(pipeline_netlist, modes)
        proper_report = check_mode_equivalence(
            pipeline_netlist, modes, proper.merged,
            clock_maps=proper.clock_maps)
        assert proper_report.equivalent
