"""Contract tests: every pipeline decision is a queryable Decision.

Mirrors the METRIC_CONTRACT strict-names test: an end-to-end merge runs
under a ``DecisionLedger(strict_kinds=True)``, so any decision site
emitting an undeclared kind fails loudly.  On top of that, the
acceptance-criterion sweep asserts that each *class* of pipeline verdict
— mergeability rejections, exception uniquifications, refinement stops,
sign-off repairs — produced a decision node whose causal chain is
non-empty and reachable through the documented query syntax.
"""

import pytest

from repro.core import merge_all, merge_modes
from repro.core.merger import MergeOptions
from repro.diagnostics import DegradationPolicy
from repro.netlist import NetlistBuilder
from repro.obs.context import observing
from repro.obs.explain import DecisionLedger, explain
from repro.sdc import parse_mode
from repro.workloads import figure2_modes, generate


@pytest.fixture(scope="module")
def workload_run():
    """Full merge of the generated Figure-2 workload, strict ledger."""
    workload = generate(figure2_modes())
    ledger = DecisionLedger(strict_kinds=True)
    with observing(decisions=ledger):
        run = merge_all(workload.netlist, workload.modes)
    return run, ledger


class TestStrictKindsEndToEnd:
    def test_workload_merge_emits_only_declared_kinds(self, workload_run):
        run, ledger = workload_run
        # strict_kinds would have raised on any undeclared kind; the run
        # must also actually have exercised the core decision sites.
        kinds = ledger.kinds()
        for expected in ("mergeability.scan", "mergeability.pair",
                         "mergeability.group", "merge.group", "merge.mode",
                         "merge.step", "case.merge", "exception.merge"):
            assert expected in kinds, f"no {expected} decisions recorded"

    def test_run_snapshot_carries_the_decisions(self, workload_run):
        run, ledger = workload_run
        assert run.decision_records
        assert len(run.decision_records) == len(ledger.records)
        payload = run.to_dict()
        assert len(payload["decisions"]) == len(ledger.records)

    def test_every_decision_has_nonempty_chain_to_a_frame(self, workload_run):
        run, ledger = workload_run
        frame_kinds = {"run", "mergeability.scan", "merge.group",
                       "merge.mode", "merge.step", "signoff.guard"}
        for decision in ledger.records:
            chain = decision.chain()
            assert chain and chain[-1] is decision
            if decision.kind not in frame_kinds:
                # Leaf decisions are never orphaned: something framed them.
                assert decision.parent is not None, decision.format()


class TestMergeabilityRejectionsQueryable:
    def test_every_rejection_explains_with_its_reason(self, workload_run):
        run, ledger = workload_run
        rejected = [d for d in ledger.by_kind("mergeability.pair")
                    if d.verdict == "rejected"]
        assert rejected, "figure2 workload must reject some pairs"
        for decision in rejected:
            chains = explain(run, decision.subject)
            assert chains, decision.subject
            leaf = chains[0][-1]
            assert leaf.verdict == "rejected"
            assert leaf.evidence and leaf.evidence[0]  # the reason text

    def test_analysis_reason_matches_ledger_evidence(self, workload_run):
        run, ledger = workload_run
        rejection = next(d for d in ledger.by_kind("mergeability.pair")
                         if d.verdict == "rejected")
        mode_a, mode_b = rejection.subject[len("pair:"):].split(",")
        assert run.analysis.reason(mode_a, mode_b) == rejection.evidence[0]


class TestRefinementStopsQueryable:
    """CS3 (figure1 + conflicting cases) produces inferred disables and a
    clock stop; both must be reachable via clock:/pin: queries."""

    @pytest.fixture
    def cs3(self, figure1):
        mode_a = parse_mode("""
            create_clock -period 10 -name clkA [get_port clk1]
            create_clock -period 20 -name clkB [get_port clk2]
            set_case_analysis 0 sel1
            set_case_analysis 1 sel2
        """, "A")
        mode_b = parse_mode("""
            create_clock -period 10 -name clkA [get_port clk1]
            create_clock -period 20 -name clkB [get_port clk2]
            set_case_analysis 1 sel1
            set_case_analysis 0 sel2
        """, "B")
        ledger = DecisionLedger(strict_kinds=True)
        with observing(decisions=ledger):
            result = merge_modes(figure1, [mode_a, mode_b])
        assert result.ok
        return result, ledger

    def test_clock_stop_has_causal_chain(self, cs3):
        result, ledger = cs3
        stops = ledger.by_kind("refinement.clock_stop")
        assert stops, "CS3 must stop clkA at mux1/Z"
        for decision in stops:
            assert decision.subject.startswith("clock:")
            chains = explain(ledger, decision.subject)
            assert chains and len(chains[0]) > 1
        assert ledger.find("clock:clkA@mux1/Z")

    def test_inferred_disables_have_causal_chain(self, cs3):
        result, ledger = cs3
        disables = ledger.by_kind("refinement.inferred_disable")
        assert len(disables) >= 2  # sel1 and sel2
        subjects = {d.subject for d in disables}
        assert "pin:sel1" in subjects and "pin:sel2" in subjects
        for decision in disables:
            chains = explain(ledger, decision.subject)
            assert chains and chains[0][-1].verdict == "disabled"

    def test_dropped_cases_recorded(self, cs3):
        result, ledger = cs3
        dropped = [d for d in ledger.by_kind("case.merge")
                   if d.verdict in ("translated", "dropped")]
        assert dropped  # conflicting sel1/sel2 values


class TestUniquificationQueryable:
    """CS4 (clock-muxed registers) uniquifies the multicycle exception."""

    @pytest.fixture(scope="class")
    def cs4(self):
        b = NetlistBuilder("cs4")
        b.inputs("clk1", "clk2", "sel", "in1")
        mux1 = b.mux2("mux1", "clk1", "clk2", "sel")
        rA = b.dff("rA", d="in1", clk=mux1.out)
        rX = b.dff("rX", d=rA.q, clk=mux1.out)
        b.output("out1", rX.q)
        netlist = b.build()
        mode_a = parse_mode("""
            create_clock -name clkA -period 10 [get_port clk1]
            set_case_analysis 0 [mux1/S]
            set_multicycle_path 2 -from [rA/CP]
        """, "A")
        mode_b = parse_mode("""
            create_clock -name clkB -period 10 [get_port clk2]
            set_case_analysis 1 [mux1/S]
        """, "B")
        ledger = DecisionLedger(strict_kinds=True)
        with observing(decisions=ledger):
            result = merge_modes(netlist, [mode_a, mode_b])
        assert result.ok
        return result, ledger

    def test_every_uniquification_explains(self, cs4):
        result, ledger = cs4
        uniquified = [d for d in ledger.by_kind("exception.merge")
                      if d.verdict == "uniquified"]
        assert uniquified, "CS4 must uniquify the multicycle path"
        for decision in uniquified:
            chains = explain(ledger, decision.subject)
            assert chains and len(chains[0]) > 1
            # Evidence names the clock restriction applied.
            assert any("clk" in line for line in decision.evidence)

    def test_constraint_query_reaches_the_rewrite(self, cs4):
        result, ledger = cs4
        chains = explain(ledger, "constraint:set_multicycle_path")
        assert any(c[-1].verdict == "uniquified" for c in chains)


class TestSignoffRepairQueryable:
    """A broken uniquification engages the guard; the repair must be a
    queryable signoff.guard decision with verdict 'repaired'."""

    MODE_A = """
        create_clock -name CK -period 10 [get_ports clk]
        set_false_path -to [get_pins rB/D]
    """
    MODE_B = "create_clock -name CK -period 10 [get_ports clk]\n"

    def test_repair_decision_with_chain(self, pipeline_netlist, monkeypatch):
        monkeypatch.setattr(
            "repro.core.exceptions_merge.uniquify_exception",
            lambda constraint, own, other: constraint)
        modes = [parse_mode(self.MODE_A, "A"), parse_mode(self.MODE_B, "B")]
        ledger = DecisionLedger(strict_kinds=True)
        with observing(decisions=ledger):
            run = merge_all(pipeline_netlist, modes,
                            MergeOptions(policy=DegradationPolicy.LENIENT,
                                         signoff_guard=True))
        assert run.repaired_count == 1
        guards = ledger.by_kind("signoff.guard")
        assert guards and guards[0].verdict == "repaired"
        chains = explain(run, "verdict:repaired")
        assert chains and chains[0][-1].kind == "signoff.guard"
        # The SGN003 diagnostic is bridged and queryable by code.
        sgn = ledger.find("code:SGN003")
        assert sgn and sgn[0].kind == "diagnostic"
        assert explain(run, "code:SGN003")[0]

    def test_run_explain_method(self, pipeline_netlist, monkeypatch):
        monkeypatch.setattr(
            "repro.core.exceptions_merge.uniquify_exception",
            lambda constraint, own, other: constraint)
        modes = [parse_mode(self.MODE_A, "A"), parse_mode(self.MODE_B, "B")]
        with observing(decisions=DecisionLedger()):
            run = merge_all(pipeline_netlist, modes,
                            MergeOptions(policy=DegradationPolicy.LENIENT,
                                         signoff_guard=True))
        chains = run.explain("verdict:repaired")
        assert chains and chains[0][-1].kind == "signoff.guard"


class TestCacheDecisionsQueryable:
    """A cold/warm cached run records cache.miss / cache.hit decisions
    under the strict ledger, reachable through the ``cache:`` syntax."""

    @pytest.fixture(scope="class")
    def cached_runs(self, tmp_path_factory):
        from repro.cache import ResultCache
        from repro.exec.chaos import ChaosPlan
        workload = generate(figure2_modes())
        root = tmp_path_factory.mktemp("explain-cache") / "store"
        cold_ledger = DecisionLedger(strict_kinds=True)
        with observing(decisions=cold_ledger):
            merge_all(workload.netlist, workload.modes,
                      cache=ResultCache.open(root, chaos=ChaosPlan()))
        warm_ledger = DecisionLedger(strict_kinds=True)
        with observing(decisions=warm_ledger):
            run = merge_all(workload.netlist, workload.modes,
                            cache=ResultCache.open(root,
                                                   chaos=ChaosPlan()))
        return run, cold_ledger, warm_ledger

    def test_strict_run_declares_cache_kinds(self, cached_runs):
        run, cold_ledger, warm_ledger = cached_runs
        # strict_kinds would have raised on an undeclared kind; the cold
        # run must miss, the warm run must hit.
        assert "cache.miss" in cold_ledger.kinds()
        assert "cache.hit" in warm_ledger.kinds()
        assert "cache.miss" not in warm_ledger.kinds()

    def test_cache_fate_queries(self, cached_runs):
        run, cold_ledger, warm_ledger = cached_runs
        hits = explain(run, "cache:hit")
        assert hits and all(c[-1].kind == "cache.hit" for c in hits)
        assert explain(run, "cache:miss") == []
        everything = explain(run, "cache:")
        assert len(everything) >= len(hits)

    def test_cache_pair_and_group_queries(self, cached_runs):
        run, cold_ledger, warm_ledger = cached_runs
        pair_hit = next(d for d in warm_ledger.by_kind("cache.hit")
                        if d.subject.startswith("cache:pair:"))
        names = pair_hit.subject[len("cache:pair:"):]
        chains = explain(run, f"cache:pair:{names}")
        assert chains and chains[0][-1].subject == pair_hit.subject
        group_hit = next(d for d in warm_ledger.by_kind("cache.hit")
                         if d.subject.startswith("cache:group:"))
        members = group_hit.subject[len("cache:group:"):]
        chains = explain(run, f"cache:group:{members}")
        assert chains and chains[0][-1].subject == group_hit.subject

    def test_cache_decisions_are_framed(self, cached_runs):
        run, cold_ledger, warm_ledger = cached_runs
        for ledger in (cold_ledger, warm_ledger):
            for decision in ledger.records:
                if decision.kind.startswith("cache."):
                    chain = decision.chain()
                    assert chain and chain[-1] is decision


class TestDisabledPipelineRecordsNothing:
    def test_no_ambient_ledger_no_decisions(self, pipeline_netlist):
        modes = [parse_mode(TestSignoffRepairQueryable.MODE_B, "A"),
                 parse_mode(TestSignoffRepairQueryable.MODE_B, "B")]
        run = merge_all(pipeline_netlist, modes)
        assert run.decision_records == []
        assert run.explain("verdict:rejected") == []
