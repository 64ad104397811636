"""Unit tests for the merge-provenance ledger (repro.obs.provenance)."""

import pytest

from repro.obs.provenance import (
    MERGE_RULES,
    RULE_DERIVED,
    RULE_INTERSECTION,
    RULE_UNION,
    ProvenanceLedger,
    ProvenanceRecord,
    lineage_line,
)
from repro.sdc.commands import ObjectRef, SetCaseAnalysis


def _case(port="scan_mode", value=0):
    return SetCaseAnalysis(value=value, objects=ObjectRef.ports(port))


class TestRecord:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown merge rule"):
            ProvenanceRecord(rule="guesswork")

    def test_str_carries_rule_sources_detail(self):
        record = ProvenanceRecord(rule=RULE_UNION, source_modes=["A", "B"],
                                  constraint=_case(), detail="as-is")
        text = str(record)
        assert "set_case_analysis 0" in text
        assert "<= union [A,B]" in text
        assert "(as-is)" in text
        # The CLI renders cache-restored and --jobs results from the
        # serialized record: the same line.
        assert lineage_line(record.to_dict()) == text

    def test_to_dict_renders_constraint_text(self):
        record = ProvenanceRecord(rule=RULE_DERIVED, constraint=_case())
        payload = record.to_dict()
        assert payload["rule"] == "derived"
        assert payload["constraint"].startswith("set_case_analysis")


@pytest.fixture
def step(pipeline_netlist):
    """(context, report) of an empty two-mode merge."""
    from repro.core.steps import MergeContext
    from repro.sdc import parse_mode

    mode = "create_clock -name c -period 10 [get_ports clk]\n"
    context = MergeContext(pipeline_netlist, [parse_mode(mode, "A"),
                                              parse_mode(mode, "B")])
    return context, context.report("case analysis (3.1.4)", "case_analysis")


class TestLedger:
    def test_identity_keyed_not_equality_keyed(self, step):
        """Two structurally equal constraints keep distinct lineages."""
        context, report = step
        first, second = _case(), _case()
        assert first == second and first is not second
        report.record("kept", first, RULE_UNION, ["A"])
        report.record("kept", second, RULE_DERIVED, ["B"])
        ledger = context.provenance
        assert len(ledger) == 2
        assert ledger.lookup(first).rule == RULE_UNION
        assert ledger.lookup(second).rule == RULE_DERIVED
        assert len(context.merged) == 2

    def test_rerecord_accumulates_sources_keeps_first_rule(self, step):
        context, report = step
        constraint = _case()
        report.record("added", constraint, RULE_UNION, ["A"])
        again = report.record("added", constraint, RULE_INTERSECTION, ["B"],
                              "second detail")
        record = context.provenance.lookup(constraint)
        assert again is record
        assert record.rule == RULE_UNION
        assert record.source_modes == ["A", "B"]
        assert record.detail == "second detail"  # fills an empty detail
        assert report.added == [constraint]
        assert len(context.merged) == 1

    def test_lineage_of_falls_back_to_text(self):
        ledger = ProvenanceLedger()
        unknown = _case("cfg0")
        lines = ledger.lineage_of([unknown])
        assert lines == ["set_case_analysis 0 [get_ports cfg0]"]

    def test_by_rule_and_to_dict(self, step):
        context, report = step
        report.record("kept", _case("a"), RULE_UNION, ["A"])
        report.record("kept", _case("b"), RULE_UNION, ["A", "B"])
        report.record("translated", _case("c"), RULE_DERIVED, [])
        report.record("dropped", None, RULE_INTERSECTION, ["A"], "d only in A")
        ledger = context.provenance
        assert ledger.by_rule() == {RULE_UNION: 2, RULE_DERIVED: 1}
        payload = ledger.to_dict()
        assert payload["schema_version"] == 1
        assert len(payload["records"]) == 3

    def test_format_limit(self, step):
        context, report = step
        for i in range(5):
            report.record("kept", _case(f"p{i}"), RULE_UNION, ["A"])
        text = context.provenance.format(limit=2)
        assert "p0" in text and "p1" in text
        assert "... (3 more)" in text


def _merge_results(name, pipeline_netlist):
    """Every merge result of one input: a two-mode pipeline merge, or
    the group merges of a paper design."""
    from repro.core import merge_all, merge_modes
    from repro.sdc import parse_mode
    from repro.workloads.designs import load_design

    if name == "pipeline":
        mode_a = parse_mode(
            "create_clock -name c -period 10 [get_ports clk]\n"
            "set_case_analysis 0 [get_ports in2]\n", "A")
        mode_b = parse_mode(
            "create_clock -name c -period 10 [get_ports clk]\n"
            "set_case_analysis 0 [get_ports in2]\n", "B")
        return [merge_modes(pipeline_netlist, [mode_a, mode_b])]
    design = load_design(name)
    run = merge_all(design.netlist, design.modes)
    results = [o.result for o in run.outcomes
               if o.result is not None and len(o.mode_names) > 1]
    assert results
    return results


class TestEndToEnd:
    def test_every_merged_constraint_answers_provenance(
            self, pipeline_netlist):
        """Acceptance: full rule/source coverage after a real merge (a
        two-mode pipeline merge and the group merges of designs B-F), and
        the view lists the steps' additions in the order they made them."""
        results = [result for name in ("pipeline", "B", "C", "D", "E", "F")
                   for result in _merge_results(name, pipeline_netlist)]
        for result in results:
            ledger = result.context.provenance
            for constraint in result.merged:
                record = ledger.lookup(constraint)
                assert record is not None, constraint
                assert record.rule in MERGE_RULES
                assert record.source_modes or record.rule == RULE_DERIVED
            added = [c for report in result.reports for c in report.added]
            assert [rec.constraint for rec in ledger.records()] == added
            assert "provenance" in result.to_dict()


class TestUnanalyzedPairReason:
    """reason() is total: unanalyzed pairs answer "" and survive export."""

    def test_reason_empty_for_unanalyzed_and_unknown_pairs(
            self, pipeline_netlist):
        from repro.core import merge_all
        from repro.sdc import parse_mode

        mode = "create_clock -name c -period 10 [get_ports clk]\n"
        modes = [parse_mode(mode, "A"), parse_mode(mode, "B")]
        run = merge_all(pipeline_netlist, modes)
        # A mergeable pair has no rejection reason...
        assert run.analysis.mergeable("A", "B")
        assert run.analysis.reason("A", "B") == ""
        # ...and a pair the scan never saw answers "" too, not KeyError.
        assert run.analysis.reason("A", "nonexistent") == ""
        assert run.analysis.reason("x", "y") == ""

    def test_reasons_round_trip_through_run_to_dict(self, pipeline_netlist):
        import json

        from repro.core import merge_all
        from repro.sdc import parse_mode

        clock_a = "create_clock -name c -period 10 [get_ports clk]\n"
        conflict = clock_a + "set_case_analysis 0 [get_ports in2]\n"
        other = clock_a + "set_case_analysis 1 [get_ports in2]\n"
        run = merge_all(pipeline_netlist, [parse_mode(conflict, "A"),
                                           parse_mode(other, "B")])
        payload = json.loads(json.dumps(run.to_dict()))
        reasons = payload["non_mergeable_reasons"]
        if run.analysis.mergeable("A", "B"):
            assert reasons == {}
        else:
            assert reasons["A|B"] == run.analysis.reason("A", "B")
            assert reasons["A|B"] != ""
