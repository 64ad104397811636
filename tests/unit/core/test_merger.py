"""Unit tests for the merge orchestrator."""

import gc
import weakref

import pytest

from repro.core import MergeContext, MergeOptions, merge_modes
from repro.sdc import parse_mode, write_mode


CLK = "create_clock -name c -period 10 [get_ports clk]\n"


class TestMergeModes:
    def test_single_mode_passthrough(self, pipeline_netlist):
        mode = parse_mode(CLK, "only")
        result = merge_modes(pipeline_netlist, [mode])
        assert result.ok
        assert len(result.merged.clocks()) == 1

    def test_merged_name_defaults_to_join(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        result = merge_modes(pipeline_netlist, modes)
        assert result.merged.name == "A+B"

    def test_explicit_name(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        result = merge_modes(pipeline_netlist, modes, name="super")
        assert result.merged.name == "super"

    def test_result_keeps_no_merged_binding(self, pipeline_netlist,
                                            monkeypatch):
        bindings = []
        bind_merged = MergeContext.bind_merged

        def recorded(self):
            bound = bind_merged(self)
            bindings.append(weakref.ref(bound))
            return bound

        monkeypatch.setattr(MergeContext, "bind_merged", recorded)
        modes = [parse_mode(CLK + "set_false_path -to [get_pins rB/D]", "A"),
                 parse_mode(CLK, "B")]
        result = merge_modes(pipeline_netlist, modes)
        gc.collect()
        assert bindings and result.ok
        assert [ref() for ref in bindings] == [None] * len(bindings)

    def test_empty_mode_list_rejected(self, pipeline_netlist):
        with pytest.raises(ValueError):
            merge_modes(pipeline_netlist, [])

    def test_validation_runs_by_default(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        result = merge_modes(pipeline_netlist, modes)
        assert result.validated
        assert result.validation_mismatches == []

    def test_validation_can_be_skipped(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        result = merge_modes(pipeline_netlist, modes,
                             options=MergeOptions(validate=False))
        assert not result.validated

    def test_summary_mentions_steps(self, pipeline_netlist, cs6_modes):
        pass  # summary tested on figure1 below

    def test_runtime_recorded(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A"), parse_mode(CLK, "B")]
        result = merge_modes(pipeline_netlist, modes)
        assert result.runtime_seconds > 0

    def test_merged_mode_reparses(self, figure1, cs6_modes):
        result = merge_modes(figure1, list(cs6_modes))
        text = write_mode(result.merged)
        reparsed = parse_mode(text, result.merged.name)
        assert len(reparsed) == len(result.merged)

    def test_summary_and_reports(self, figure1, cs6_modes):
        result = merge_modes(figure1, list(cs6_modes))
        text = result.summary()
        assert "clock union" in text
        assert "equivalence validation: PASSED" in text
        assert len(result.reports) >= 10

    def test_clock_maps_exposed(self, figure1, cs6_modes):
        result = merge_modes(figure1, list(cs6_modes))
        assert result.clock_maps["A"]["clkA"] == "clkA"
        assert result.clock_maps["B"]["clkA"] == "clkA"


class TestOrderedPipeline:
    def test_step_order_matches_paper(self, figure1, cs6_modes):
        result = merge_modes(figure1, list(cs6_modes))
        names = [r.name for r in result.reports]
        expected_order = [
            "clock union (3.1.1)",
            "clock-based constraints (3.1.2)",
            "external delays (3.1.3)",
            "case analysis (3.1.4)",
            "disable timing (3.1.5)",
            "drive/load constraints (3.1.6)",
            "clock exclusivity (3.1.7)",
            "clock refinement (3.1.8)",
            "exceptions (3.1.9/3.1.10)",
            "data refinement: launch clocks (3.2a)",
            "3-pass refinement (3.2b)",
        ]
        assert names == expected_order
