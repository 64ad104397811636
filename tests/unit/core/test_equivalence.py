"""Unit tests for standalone equivalence checking."""

from repro.core import check_mode_equivalence, merge_modes
from repro.sdc import parse_mode

CLK = "create_clock -name c -period 10 [get_ports clk]\n"


class TestCheckModeEquivalence:
    def test_identical_mode_is_equivalent(self, pipeline_netlist):
        mode = parse_mode(CLK, "A")
        candidate = parse_mode(CLK, "cand")
        report = check_mode_equivalence(pipeline_netlist, [mode], candidate)
        assert report.equivalent
        assert "EQUIVALENT" in report.summary()

    def test_over_timing_candidate_caught(self, pipeline_netlist):
        """Candidate times a path both modes declare false."""
        mode = parse_mode(CLK + "set_false_path -to [get_pins rB/D]", "A")
        candidate = parse_mode(CLK, "cand")
        report = check_mode_equivalence(pipeline_netlist, [mode], candidate)
        assert not report.equivalent
        assert report.mismatches

    def test_under_timing_candidate_caught(self, pipeline_netlist):
        """Candidate false-paths something the individual mode times."""
        mode = parse_mode(CLK, "A")
        candidate = parse_mode(
            CLK + "set_false_path -to [get_pins rB/D]", "cand")
        report = check_mode_equivalence(pipeline_netlist, [mode], candidate)
        assert not report.equivalent

    def test_wrong_mcp_caught(self, pipeline_netlist):
        mode = parse_mode(
            CLK + "set_multicycle_path 2 -to [get_pins rB/D]", "A")
        candidate = parse_mode(
            CLK + "set_multicycle_path 3 -to [get_pins rB/D]", "cand")
        report = check_mode_equivalence(pipeline_netlist, [mode], candidate)
        assert not report.equivalent

    def test_rewritten_but_equivalent_constraints(self, pipeline_netlist):
        """The paper's Section 2 point: different SDC text, same effect."""
        mode = parse_mode(
            CLK + "set_false_path -to [get_pins rB/D]", "A")
        candidate = parse_mode(
            CLK + "set_false_path -from [get_pins rA/CP]", "cand")
        # In this netlist all paths to rB/D start at rA/CP, so the two
        # formulations are behaviourally identical.
        report = check_mode_equivalence(pipeline_netlist, [mode], candidate)
        assert report.equivalent

    def test_merge_output_is_equivalent(self, figure1, cs6_modes):
        result = merge_modes(figure1, list(cs6_modes))
        report = check_mode_equivalence(
            figure1, list(cs6_modes), result.merged,
            clock_maps=result.clock_maps)
        assert report.equivalent

    def test_clock_map_applied(self, pipeline_netlist):
        mode = parse_mode("create_clock -name orig -period 10 "
                          "[get_ports clk]", "A")
        candidate = parse_mode("create_clock -name renamed -period 10 "
                               "[get_ports clk]", "cand")
        report = check_mode_equivalence(
            pipeline_netlist, [mode], candidate,
            clock_maps={"A": {"orig": "renamed"}})
        assert report.equivalent


class TestEdgeCases:
    def test_single_mode_group_is_self_equivalent(self, pipeline_netlist):
        mode = parse_mode(CLK + "set_false_path -to [get_pins rB/D]", "A")
        candidate = parse_mode(CLK + "set_false_path -to [get_pins rB/D]",
                               "cand")
        report = check_mode_equivalence(pipeline_netlist, [mode], candidate)
        assert report.equivalent

    def test_single_mode_merge_validates(self, pipeline_netlist):
        result = merge_modes(pipeline_netlist, [parse_mode(CLK, "only")])
        assert result.ok
        assert result.validated
        assert not result.validation_mismatches

    def test_empty_constraint_modes_are_equivalent(self, pipeline_netlist):
        """No clocks -> no timing relationships on either side."""
        report = check_mode_equivalence(
            pipeline_netlist, [parse_mode("", "E")], parse_mode("", "cand"))
        assert report.equivalent
        assert report.mismatches == []

    def test_empty_mode_vs_clocked_candidate_not_equivalent(
            self, pipeline_netlist):
        """A clocked candidate times paths an empty mode never timed."""
        report = check_mode_equivalence(
            pipeline_netlist, [parse_mode("", "E")],
            parse_mode(CLK, "cand"))
        assert not report.equivalent

    def test_empty_mode_in_a_group_is_absorbed(self, pipeline_netlist):
        """An empty member contributes nothing; the union is the other
        mode's relationships."""
        report = check_mode_equivalence(
            pipeline_netlist,
            [parse_mode(CLK, "A"), parse_mode("", "E")],
            parse_mode(CLK, "cand"))
        assert report.equivalent

    def test_renamed_clocks_equivalent_only_under_clock_map(
            self, pipeline_netlist):
        """The same comparison flips on whether the clock map is given."""
        mode = parse_mode("create_clock -name orig -period 10 "
                          "[get_ports clk]", "A")
        candidate = parse_mode("create_clock -name renamed -period 10 "
                               "[get_ports clk]", "cand")
        unmapped = check_mode_equivalence(pipeline_netlist, [mode],
                                          candidate)
        assert not unmapped.equivalent
        mapped = check_mode_equivalence(
            pipeline_netlist, [mode], candidate,
            clock_maps={"A": {"orig": "renamed"}})
        assert mapped.equivalent


class TestSummaryTruncation:
    def _report(self, count):
        from repro.core import EquivalenceReport

        return EquivalenceReport(
            equivalent=False,
            mismatches=[f"mismatch-{i}" for i in range(count)],
            compared_mode_names=["A", "B"],
            merged_mode_name="A+B")

    def test_header_carries_the_true_total(self):
        text = self._report(50).summary()
        assert "NOT EQUIVALENT (50 mismatches)" in text

    def test_default_limit_truncates_with_trailer(self):
        text = self._report(50).summary()
        assert "mismatch-19" in text
        assert "mismatch-20" not in text
        assert "... 30 more (of 50 total)" in text

    def test_custom_limit(self):
        text = self._report(5).summary(limit=2)
        assert "mismatch-1" in text
        assert "mismatch-2" not in text
        assert "... 3 more (of 5 total)" in text

    def test_limit_none_shows_everything(self):
        text = self._report(50).summary(limit=None)
        assert "mismatch-49" in text
        assert "more (of" not in text

    def test_no_trailer_when_under_limit(self):
        text = self._report(3).summary()
        assert "more (of" not in text
