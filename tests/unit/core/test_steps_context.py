"""Unit tests for MergeContext / StepReport plumbing."""

import pytest

from repro.core.mergeability import merge_all
from repro.core.steps import Conflict, MergeContext
from repro.obs.provenance import RULE_INTERSECTION, RULE_UNIQUIFIED
from repro.sdc import SetCaseAnalysis, ObjectRef, parse_mode
from repro.timing.context import BoundMode
from repro.workloads.designs import load_design
from repro.workloads.families import build_family, family_names

CLK = "create_clock -name c -period 10 [get_ports clk]\n"

#: every BoundMode field a binding resolves
BOUND_FIELDS = ("clocks", "case_values", "disabled_arcs", "clock_stops",
                "exceptions", "input_delays", "output_delays",
                "exclusive_pairs", "clock_latency", "uncertainty")


def assert_same_binding(got, fresh):
    for name in BOUND_FIELDS:
        assert getattr(got, name) == getattr(fresh, name), name
    assert got.resolver.clock_names == fresh.resolver.clock_names
    assert got.constants.values == fresh.constants.values
    assert got.constants.case_values == fresh.constants.case_values
    assert got.constants.disabled_arcs == fresh.constants.disabled_arcs


class TestStepReport:
    def test_add_drop_note_conflict(self, pipeline_netlist):
        ctx = MergeContext(pipeline_netlist,
                           [parse_mode(CLK, "A"), parse_mode(CLK, "B")])
        report = ctx.report("step", "case_analysis")
        constraint = SetCaseAnalysis(0, ObjectRef.ports("x"))
        dropped = SetCaseAnalysis(1, ObjectRef.ports("y"))
        report.record("kept", constraint, RULE_INTERSECTION, ["A", "B"])
        report.record("dropped", None, RULE_INTERSECTION, ["A"],
                      "y only in A", dropped=[("A", dropped)])
        report.record("dropped", None, RULE_UNIQUIFIED, ["A", "B"],
                      "not uniquifiable",
                      conflicts=[Conflict(("A", "B"), "bad")])
        report.note("hello")
        assert report.added == [constraint]
        assert list(ctx.merged) == [constraint]
        assert report.dropped == [("A", dropped)]
        assert ctx.dropped_cases == [("A", dropped)]
        # Kept constraints show in provenance, conflicts in conflicts.
        assert report.notes == ["y only in A", "hello"]
        assert "step" in report.summary()
        assert "+1" in report.summary()
        assert str(report.conflicts[0]) == "[A, B] bad"


class TestMergeContext:
    def test_merged_name(self, pipeline_netlist):
        ctx = MergeContext(pipeline_netlist,
                           [parse_mode(CLK, "A"), parse_mode(CLK, "B")])
        assert ctx.merged_name == "A+B"
        assert ctx.mode_names() == ("A", "B")

    def test_requires_modes(self, pipeline_netlist):
        with pytest.raises(ValueError):
            MergeContext(pipeline_netlist, [])

    def test_bound_individuals_cached(self, pipeline_netlist):
        mode = parse_mode(CLK, "A")
        first = MergeContext(pipeline_netlist, [mode]).bound_individuals()
        second = MergeContext(pipeline_netlist, [mode]).bound_individuals()
        assert first[0] is second[0]  # cached on the netlist

    def test_bind_merged_always_fresh(self, pipeline_netlist):
        ctx = MergeContext(pipeline_netlist, [parse_mode(CLK, "A")])
        assert ctx.bind_merged() is not ctx.bind_merged()

    def test_bind_merged_extends_the_last_binding(self, pipeline_netlist):
        ctx = MergeContext(pipeline_netlist, [parse_mode(CLK, "A")])
        ctx.merged.add(parse_mode(CLK, "x").constraints[0])
        first = ctx.bind_merged()
        ctx.merged.add(SetCaseAnalysis(0, ObjectRef.ports("in1")))
        second = ctx.bind_merged()  # a case value: bound afresh
        assert second.constants.values is not first.constants.values
        ctx.merged.extend(parse_mode(
            "set_false_path -to [get_pins rB/D]\n"
            "set_disable_timing [get_pins inv1/A]", "x").constraints)
        third = ctx.bind_merged()
        assert third.constants.values is second.constants.values
        assert len(second.exceptions) == 0  # the old binding is untouched
        assert_same_binding(third, BoundMode(pipeline_netlist, ctx.merged))
        ctx.release_binding()
        assert ctx.bind_merged().constants.values is not \
            third.constants.values

    def test_all_conflicts_aggregates(self, pipeline_netlist):
        ctx = MergeContext(pipeline_netlist, [parse_mode(CLK, "A")])
        for name, reason in (("s1", "one"), ("s2", "two")):
            ctx.report(name).record("dropped", None, RULE_UNIQUIFIED, ["A"],
                                    conflicts=[Conflict(("A",), reason)])
        assert [c.reason for c in ctx.all_conflicts()] == ["one", "two"]

    def test_mapped_clocks(self, pipeline_netlist):
        mode = parse_mode(CLK, "A")
        ctx = MergeContext(pipeline_netlist, [mode])
        ctx.clock_maps["A"]["c"] = "c_1"
        assert ctx.mapped_clocks(mode) == ["c_1"]


class TestIncrementalBinding:
    """Every bind_merged() equals a fresh binding, field by field."""

    def test_merges_bind_like_fresh_bindings(self, monkeypatch):
        counts = {"binds": 0, "extended": 0}
        bind_merged = MergeContext.bind_merged
        extended = BoundMode.extended

        def counted_extended(self, mode):
            out = extended(self, mode)
            counts["extended"] += out is not None
            return out

        def checked_bind_merged(self):
            bound = bind_merged(self)
            assert_same_binding(
                bound, BoundMode(self.netlist, self.merged, self.graph))
            counts["binds"] += 1
            return bound

        monkeypatch.setattr(BoundMode, "extended", counted_extended)
        monkeypatch.setattr(MergeContext, "bind_merged",
                            checked_bind_merged)
        designs = [load_design("E")] + [build_family(family, seed)
                                        for family in family_names()
                                        for seed in range(2)]
        for design in designs:
            run = merge_all(design.netlist, design.modes)
            assert all(outcome.result.ok for outcome in run.outcomes)
        # Clock refinement binds afresh; later steps extend.
        assert counts["binds"] > counts["extended"] > counts["binds"] / 2
