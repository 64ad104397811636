"""Unit tests for exception intersection + uniquification (3.1.9/3.1.10)."""

from repro.core import merge_clocks, merge_exceptions, uniquify_exception
from repro.core.steps import MergeContext
from repro.sdc import ObjectRef, PathSpec, SetFalsePath, parse_mode


def run_step(netlist, *sdcs):
    modes = [parse_mode(text, f"m{i}") for i, text in enumerate(sdcs)]
    ctx = MergeContext(netlist, modes)
    merge_clocks(ctx)
    report = merge_exceptions(ctx)
    return ctx, report


class TestIntersection:
    def test_common_exception_added(self, pipeline_netlist):
        text = ("create_clock -name c -period 10 [get_ports clk]\n"
                "set_false_path -to [get_pins rB/D]")
        ctx, report = run_step(pipeline_netlist, text, text)
        assert len(ctx.merged.false_paths()) == 1
        assert not report.conflicts

    def test_clock_mapped_before_comparison(self, pipeline_netlist):
        """FPs referencing deduplicated clocks compare equal after mapping."""
        ctx, _ = run_step(
            pipeline_netlist,
            "create_clock -name x -period 10 [get_ports clk]\n"
            "set_false_path -from [get_clocks x] -to [get_pins rB/D]",
            "create_clock -name y -period 10 [get_ports clk]\n"
            "set_false_path -from [get_clocks y] -to [get_pins rB/D]",
        )
        fps = ctx.merged.false_paths()
        assert len(fps) == 1
        assert fps[0].spec.from_clock_names() == ("x",)


class TestUniquification:
    def test_cs4_rewrite(self, pipeline_netlist):
        """MCP only in mode A (clock a); mode B uses a disjoint clock b."""
        ctx, report = run_step(
            pipeline_netlist,
            "create_clock -name a -period 10 [get_ports clk]\n"
            "set_multicycle_path 2 -from [get_pins rA/CP]",
            "create_clock -name b -period 5 [get_ports clk]",
        )
        mcps = ctx.merged.multicycle_paths()
        assert len(mcps) == 1
        spec = mcps[0].spec
        assert spec.from_clock_names() == ("a",)
        assert spec.through_refs[0].patterns == ("rA/CP",)
        assert not report.conflicts

    def test_shared_clocks_drop_false_path(self, pipeline_netlist):
        """Same clock in both modes: the mode-A-only FP must be dropped."""
        ctx, report = run_step(
            pipeline_netlist,
            "create_clock -name c -period 10 [get_ports clk]\n"
            "set_false_path -to [get_pins rB/D]",
            "create_clock -name c -period 10 [get_ports clk]",
        )
        assert not ctx.merged.false_paths()
        assert report.dropped
        assert not report.conflicts  # FP drops are recoverable

    def test_shared_clocks_mcp_is_conflict(self, pipeline_netlist):
        ctx, report = run_step(
            pipeline_netlist,
            "create_clock -name c -period 10 [get_ports clk]\n"
            "set_multicycle_path 2 -to [get_pins rB/D]",
            "create_clock -name c -period 10 [get_ports clk]",
        )
        assert not ctx.merged.multicycle_paths()
        assert report.conflicts

    def test_already_clock_restricted_kept(self, pipeline_netlist):
        ctx, report = run_step(
            pipeline_netlist,
            "create_clock -name a -period 10 [get_ports clk]\n"
            "set_false_path -from [get_clocks a] -to [get_pins rB/D]",
            "create_clock -name b -period 5 [get_ports clk]",
        )
        fps = ctx.merged.false_paths()
        assert len(fps) == 1
        assert fps[0].spec.from_clock_names() == ("a",)


class TestUniquifyFunction:
    def spec_from_pin(self):
        return PathSpec(from_refs=(ObjectRef.pins("rA/CP"),))

    def test_disjoint_clocks_from_rewrite(self):
        fp = SetFalsePath(spec=self.spec_from_pin())
        result = uniquify_exception(fp, {"a"}, {"b"})
        assert result is not None
        assert result.spec.from_clock_names() == ("a",)
        assert result.spec.through_refs[0].patterns == ("rA/CP",)

    def test_overlapping_clocks_fail(self):
        fp = SetFalsePath(spec=self.spec_from_pin())
        assert uniquify_exception(fp, {"a", "shared"}, {"shared"}) is None

    def test_nonconflicting_from_clocks_kept_as_is(self):
        # -from clocks that no other mode owns already make it unique.
        fp = SetFalsePath(spec=PathSpec(
            from_refs=(ObjectRef.clocks("shared"),),
            to_refs=(ObjectRef.pins("rB/D"),)))
        assert uniquify_exception(fp, {"a"}, {"b"}) is fp

    def test_to_side_restriction(self):
        # From-clocks collide with the other modes' namespace, so the
        # rewrite falls back to restricting the capture side.
        fp = SetFalsePath(spec=PathSpec(
            from_refs=(ObjectRef.clocks("b"),),
            to_refs=(ObjectRef.pins("rB/D"),)))
        result = uniquify_exception(fp, {"a"}, {"b"})
        assert result is not None
        assert result.spec.to_clock_names() == ("a",)
        # to-pins moved into the through chain
        assert result.spec.through_refs[-1].patterns == ("rB/D",)

    def test_mixed_pin_clock_from_list_fails(self):
        fp = SetFalsePath(spec=PathSpec(
            from_refs=(ObjectRef.clocks("a"), ObjectRef.pins("rA/CP"))))
        assert uniquify_exception(fp, {"a"}, {"b"}) is None

    def test_unique_to_clocks_kept_as_is(self):
        fp = SetFalsePath(spec=PathSpec(to_refs=(ObjectRef.clocks("a"),)))
        assert uniquify_exception(fp, {"a"}, {"b"}) is fp
