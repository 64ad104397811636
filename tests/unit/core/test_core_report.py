"""Unit tests for merge reporting."""

from repro.core import (
    format_merge_report,
    format_merging_run,
    format_pass_table,
    merge_all,
    merge_modes,
)
from repro.core.equivalence import EquivalenceReport
from repro.core.mergeability import GroupOutcome
from repro.sdc import parse_mode

CLK = "create_clock -name c -period 10 [get_ports clk]\n"


class TestMergeReport:
    def test_sections_present(self, figure1, cs6_modes):
        result = merge_modes(figure1, list(cs6_modes))
        text = format_merge_report(result, show_constraints=True)
        assert "clock map:" in text
        assert "dropped constraints:" in text
        assert "refinement fixes (3):" in text
        assert "merged mode constraints:" in text
        assert "set_false_path -to [get_pins rX/D]" in text

    def test_pass_tables(self, figure1, cs6_modes):
        result = merge_modes(figure1, list(cs6_modes))
        table1 = format_pass_table(result.outcome.pass1_entries, 1)
        assert "pass 1" in table1
        assert "rX/D" in table1
        table3 = format_pass_table(result.outcome.pass3_entries, 3)
        assert "inv3/A" in table3
        empty = format_pass_table([], 2)
        assert "(no rows)" in empty


class TestMergingRunReport:
    def test_table(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        run = merge_all(pipeline_netlist, modes)
        text = format_merging_run(run)
        assert "A+B" in text
        assert "#Modes" in text
        assert "OK" in text

    def test_repaired_marker(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        run = merge_all(pipeline_netlist, modes)
        run.outcomes[0].repaired = True
        text = format_merging_run(run)
        assert "OK [repaired]" in text
        assert "sign-off guard repaired 1 outcome(s)" in text

    def test_restored_marker(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        run = merge_all(pipeline_netlist, modes)
        run.outcomes[0].restored = True
        text = format_merging_run(run)
        assert "OK [restored]" in text
        assert "1 outcome(s) restored from the result cache" in text

    def test_both_markers_stack(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        run = merge_all(pipeline_netlist, modes)
        run.outcomes[0].repaired = True
        run.outcomes[0].restored = True
        assert "OK [repaired] [restored]" in format_merging_run(run)

    def test_failed_outcome_row_and_failures_section(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        run = merge_all(pipeline_netlist, modes)
        run.outcomes.append(GroupOutcome(mode_names=["C", "D"],
                                         error="validation failed"))
        text = format_merging_run(run)
        assert "FAILED" in text
        assert "failures:" in text
        assert "C+D: validation failed" in text

    def test_failure_without_reason_reads_unknown(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        run = merge_all(pipeline_netlist, modes)
        run.outcomes.append(GroupOutcome(mode_names=["C"]))
        assert "C: unknown failure" in format_merging_run(run)


class TestEquivalenceSummaryTruncation:
    def _report(self, n):
        return EquivalenceReport(
            equivalent=False,
            mismatches=[f"mismatch-{i}" for i in range(n)],
            compared_mode_names=["A", "B"],
            merged_mode_name="A+B",
        )

    def test_default_limit_truncates_at_20(self):
        text = self._report(25).summary()
        assert "NOT EQUIVALENT (25 mismatches)" in text
        assert "mismatch-19" in text
        assert "mismatch-20" not in text
        assert "... 5 more (of 25 total)" in text

    def test_limit_none_shows_all(self):
        text = self._report(25).summary(limit=None)
        assert "mismatch-24" in text
        assert "more" not in text

    def test_under_limit_has_no_ellipsis(self):
        text = self._report(3).summary()
        assert "mismatch-2" in text
        assert "more" not in text

    def test_equivalent_report_header(self):
        report = EquivalenceReport(equivalent=True, merged_mode_name="M")
        assert "EQUIVALENT" in report.summary()
        assert "NOT" not in report.summary()
