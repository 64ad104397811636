"""Unit tests for clock refinement (3.1.8) and data refinement (3.2a)."""

from repro.core import (
    merge_case_analysis,
    merge_clock_exclusivity,
    merge_clocks,
    refine_clock_network,
    refine_data_clocks,
)
from repro.core.steps import MergeContext
from repro.sdc import (
    SetClockSense,
    SetDisableTiming,
    SetFalsePath,
    parse_mode,
    write_constraint,
)


def context_for(netlist, *sdcs):
    modes = [parse_mode(text, f"m{i}") for i, text in enumerate(sdcs)]
    ctx = MergeContext(netlist, modes)
    merge_clocks(ctx)
    merge_case_analysis(ctx)
    merge_clock_exclusivity(ctx)
    return ctx


class TestClockRefinement:
    def test_cs3_stop_and_disables(self, figure1):
        """The paper's Constraint Set 3 end state."""
        ctx = context_for(
            figure1,
            """
            create_clock -period 10 -name clkA [get_port clk1]
            create_clock -period 20 -name clkB [get_port clk2]
            set_case_analysis 0 sel1
            set_case_analysis 1 sel2
            """,
            """
            create_clock -period 10 -name clkA [get_port clk1]
            create_clock -period 20 -name clkB [get_port clk2]
            set_case_analysis 1 sel1
            set_case_analysis 0 sel2
            """,
        )
        report = refine_clock_network(ctx)
        disables = ctx.merged.of_type(SetDisableTiming)
        assert {d.objects.patterns[0] for d in disables} == {"sel1", "sel2"}
        stops = ctx.merged.of_type(SetClockSense)
        assert len(stops) == 1
        assert stops[0].stop_propagation
        assert stops[0].clocks.patterns == ("clkA",)
        assert stops[0].pins.patterns == ("mux1/Z",)

    def test_no_refinement_when_identical(self, figure1):
        text = """
            create_clock -period 10 -name clkA [get_port clk1]
            set_case_analysis 0 sel1
            set_case_analysis 0 sel2
        """
        ctx = context_for(figure1, text, text)
        report = refine_clock_network(ctx)
        assert not report.added

    def test_frontier_only_one_stop(self, figure1):
        """Stops are emitted at the frontier, not at every downstream node."""
        ctx = context_for(
            figure1,
            """
            create_clock -period 10 -name clkA [get_port clk1]
            create_clock -period 20 -name clkB [get_port clk2]
            set_case_analysis 0 sel1
            set_case_analysis 1 sel2
            """,
            """
            create_clock -period 10 -name clkA [get_port clk1]
            create_clock -period 20 -name clkB [get_port clk2]
            set_case_analysis 1 sel1
            set_case_analysis 0 sel2
            """,
        )
        refine_clock_network(ctx)
        stops = ctx.merged.of_type(SetClockSense)
        # Not one per capture register CP pin.
        assert len(stops) == 1

    def test_inferred_disable_requires_constant_in_all(self, figure1):
        """sel1 cased only in mode 0 and toggling in mode 1: no disable."""
        ctx = context_for(
            figure1,
            """
            create_clock -period 10 -name clkA [get_port clk1]
            set_case_analysis 0 sel1
            """,
            "create_clock -period 10 -name clkA [get_port clk1]",
        )
        refine_clock_network(ctx)
        assert not ctx.merged.of_type(SetDisableTiming)


class TestDataRefinement:
    def test_cs5_frontier_false_path(self, figure1):
        """Constraint Set 5: ClkB stopped at rB/Q in the data network."""
        ctx = context_for(
            figure1,
            """
            create_clock -name ClkA -period 2 [get_port clk1]
            set_input_delay 2.0 -clock ClkA [get_port in1]
            """,
            """
            create_clock -name ClkB -period 1 [get_port clk1]
            set_input_delay 2.0 -clock ClkB [get_port in1]
            set_case_analysis 0 rB/Q
            """,
        )
        report = refine_data_clocks(ctx)
        fps = ctx.merged.of_type(SetFalsePath)
        texts = [write_constraint(fp) for fp in fps]
        assert any("-from [get_clocks ClkB] -through [get_pins rB/Q]" in t
                   for t in texts)
        # Frontier only: no redundant stop at and1/Z (covered by rB/Q).
        assert not any("and1/Z" in t for t in texts)

    def test_no_extra_clocks_no_fixes(self, figure1):
        text = """
            create_clock -name ClkA -period 2 [get_port clk1]
            set_input_delay 1 -clock ClkA [get_port in1]
        """
        ctx = context_for(figure1, text, text)
        report = refine_data_clocks(ctx)
        assert not report.added
