"""Robustness tests: degenerate and hostile inputs through the full flow.

A production tool's behaviour on weird-but-legal input matters as much as
its behaviour on the happy path: constraints referencing nothing, designs
with no registers, modes with no clocks, empty modes, dangling logic.
Everything here must either work (with the sensible degenerate answer) or
fail with a precise library error — never crash incidentally.
"""

import pytest

from repro.core import check_mode_equivalence, merge_all, merge_modes
from repro.netlist import NetlistBuilder
from repro.sdc import parse_mode
from repro.timing import BoundMode, RelationshipExtractor, run_sta

CLK = "create_clock -name c -period 10 [get_ports clk]\n"


@pytest.fixture
def comb_only_netlist():
    """No registers at all: pure combinational feed-through."""
    b = NetlistBuilder("comb")
    b.inputs("clk", "a", "b")
    g = b.and2("g1", "a", "b")
    b.output("z", g.out)
    return b.build()


class TestDegenerateDesigns:
    def test_no_registers_sta(self, comb_only_netlist):
        mode = parse_mode(CLK + """
            create_clock -name v -period 10
            set_input_delay 1 -clock c [get_ports a]
            set_output_delay 1 -clock c [get_ports z]
        """)
        result = run_sta(BoundMode(comb_only_netlist, mode))
        # Port-to-port path is timed; no register endpoints exist.
        assert list(result.endpoint_slacks) == ["z"]

    def test_no_registers_merge(self, comb_only_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        result = merge_modes(comb_only_netlist, modes)
        assert result.ok

    def test_empty_modes_merge(self, pipeline_netlist):
        modes = [parse_mode("", "A"), parse_mode("", "B")]
        result = merge_modes(pipeline_netlist, modes)
        assert result.ok
        assert len(result.merged) == 0

    def test_clockless_modes(self, pipeline_netlist):
        """Constraints but no clocks: nothing is timed, merge is trivial."""
        modes = [
            parse_mode("set_case_analysis 0 [get_ports in1]", "A"),
            parse_mode("set_case_analysis 0 [get_ports in1]", "B"),
        ]
        result = merge_modes(pipeline_netlist, modes)
        assert result.ok
        bound = BoundMode(pipeline_netlist, result.merged)
        assert RelationshipExtractor(bound).endpoint_relationships() == {}


class TestDanglingReferences:
    def test_constraints_on_missing_objects_are_noops(self, pipeline_netlist):
        mode = parse_mode(CLK + """
            set_false_path -to [get_pins ghost/D]
            set_case_analysis 0 [get_ports phantom]
            set_disable_timing [get_cells nobody]
            set_input_delay 1 -clock c [get_ports missing]
        """, "A")
        bound = BoundMode(pipeline_netlist, mode)
        assert bound.case_values == {}
        assert bound.disabled_arcs == set()
        exc = bound.exceptions[0]
        assert not exc.to_nodes  # resolved to nothing

    def test_merge_with_dangling_references(self, pipeline_netlist):
        mode_a = parse_mode(CLK + "set_false_path -to [get_pins ghost/D]",
                            "A")
        mode_b = parse_mode(CLK, "B")
        result = merge_modes(pipeline_netlist, [mode_a, mode_b])
        assert result.ok

    def test_exception_on_unknown_clock(self, pipeline_netlist):
        mode = parse_mode(CLK + """
            set_false_path -from [get_clocks no_such_clock]
        """, "A")
        result = merge_modes(pipeline_netlist, [mode,
                                                parse_mode(CLK, "B")])
        assert result.ok


class TestConstantsEverywhere:
    def test_fully_cased_design(self, pipeline_netlist):
        """Case analysis on every input: no paths remain anywhere."""
        mode = parse_mode(CLK + """
            set_case_analysis 0 [get_ports in1]
            set_case_analysis 0 [get_pins rA/Q]
            set_case_analysis 0 [get_pins rB/Q]
        """, "A")
        result = run_sta(BoundMode(pipeline_netlist, mode))
        assert result.endpoint_slacks == {}

    def test_merge_of_fully_cased_and_open_mode(self, pipeline_netlist):
        locked = parse_mode(CLK + """
            set_case_analysis 0 [get_pins rA/Q]
        """, "locked")
        open_mode = parse_mode(CLK, "open")
        result = merge_modes(pipeline_netlist, [locked, open_mode])
        assert result.ok
        # The merged mode must still time the path (open mode has it).
        bound = BoundMode(pipeline_netlist, result.merged)
        rows = RelationshipExtractor(bound).endpoint_relationships()
        assert any(not s.is_false
                   for states in rows.values() for s in states)


class TestLargeModeCounts:
    def test_many_identical_modes(self, pipeline_netlist):
        """20 identical modes collapse into one without blowup."""
        modes = [parse_mode(CLK, f"m{i}") for i in range(20)]
        run = merge_all(pipeline_netlist, modes)
        assert run.merged_count == 1
        assert run.reduction_percent == pytest.approx(95.0)

    def test_singleton_equivalence(self, pipeline_netlist):
        mode = parse_mode(CLK + "set_multicycle_path 2 -to [get_pins rB/D]",
                          "A")
        result = merge_modes(pipeline_netlist, [mode])
        report = check_mode_equivalence(pipeline_netlist, [mode],
                                        result.merged,
                                        clock_maps=result.clock_maps)
        assert report.equivalent
