"""Unit tests for the decision ledger and query engine (repro.obs.explain)."""

import json

import pytest

from repro.obs.context import current, observing
from repro.obs.explain import (
    DECISION_KINDS,
    Decision,
    DecisionLedger,
    NullDecisions,
    explain,
    find_decisions,
    format_chains,
    group_subject,
    pair_subject,
)


class TestSubjects:
    def test_pair_subject_is_order_free(self):
        assert pair_subject("scan", "funcA") == "pair:funcA,scan"
        assert pair_subject("funcA", "scan") == "pair:funcA,scan"

    def test_group_subject_is_order_free(self):
        assert group_subject(["b", "a"]) == "group:a+b"
        assert group_subject(("a", "b")) == "group:a+b"


class TestDecision:
    def test_chain_runs_root_to_self(self):
        root = Decision(kind="run", subject="run:merge")
        mid = Decision(kind="merge.group", subject="group:A+B", parent=root)
        leaf = Decision(kind="exception.merge", subject="constraint:x",
                        parent=mid)
        assert leaf.chain() == [root, mid, leaf]
        assert root.chain() == [root]

    def test_chain_is_cycle_safe(self):
        a = Decision(kind="run", subject="run:merge")
        b = Decision(kind="merge.group", subject="group:A", parent=a)
        a.parent = b  # corrupt: cycle
        assert b.chain()  # terminates

    def test_to_dict_round_trips_through_json(self):
        parent = Decision(kind="run", subject="run:merge", id=0)
        leaf = Decision(kind="mergeability.pair", subject="pair:A,B",
                        verdict="rejected", evidence=["conflicting cases"],
                        parent=parent, id=1, span="merge_all",
                        attrs={"modes": ("A", "B")})
        record = json.loads(json.dumps(leaf.to_dict()))
        assert record["kind"] == "mergeability.pair"
        assert record["parent"] == 0
        assert record["evidence"] == ["conflicting cases"]
        assert record["attrs"]["modes"] == ["A", "B"]

    def test_format_includes_verdict_and_evidence(self):
        decision = Decision(kind="case.merge", subject="case:('sel',)",
                            verdict="dropped", evidence=["conflict 0 vs 1"])
        text = str(decision)
        assert "[case.merge]" in text
        assert "-> dropped" in text
        assert "conflict 0 vs 1" in text


class TestLedger:
    def test_decide_appends_with_stable_ids(self):
        ledger = DecisionLedger()
        a = ledger.decide("run", "run:merge")
        b = ledger.decide("mergeability.pair", "pair:A,B",
                          verdict="mergeable")
        assert [a.id, b.id] == [0, 1]
        assert len(ledger) == 2

    def test_frame_parents_nested_decisions(self):
        ledger = DecisionLedger()
        with ledger.frame("merge.group", "group:A+B") as frame:
            inner = ledger.decide("case.merge", "case:x", verdict="kept")
            assert ledger.current is frame
        assert inner.parent is frame
        assert ledger.current is None
        # Post-exit decisions are not parented to the closed frame.
        after = ledger.decide("run", "run:x")
        assert after.parent is None

    def test_frame_yields_decision_for_late_verdict(self):
        ledger = DecisionLedger()
        with ledger.frame("signoff.guard", "group:A+B") as frame:
            frame.verdict = "repaired"
            frame.evidence.append("constraint rewritten")
        assert ledger.records[0].verdict == "repaired"

    def test_frame_exit_records_exception(self):
        ledger = DecisionLedger()
        with pytest.raises(RuntimeError):
            with ledger.frame("merge.mode", "group:A"):
                raise RuntimeError("boom")
        assert ledger.records[0].attrs["error"] == "RuntimeError"
        assert ledger.current is None

    def test_strict_kinds_rejects_undeclared(self):
        ledger = DecisionLedger(strict_kinds=True)
        ledger.decide("mergeability.pair", "pair:A,B")
        with pytest.raises(KeyError, match="not in"):
            ledger.decide("made.up.kind", "x")

    def test_lenient_by_default(self):
        DecisionLedger().decide("made.up.kind", "x")  # does not raise

    def test_by_kind_and_kinds(self):
        ledger = DecisionLedger()
        ledger.decide("mergeability.pair", "pair:A,B", verdict="rejected")
        ledger.decide("mergeability.pair", "pair:A,C", verdict="mergeable")
        ledger.decide("case.merge", "case:x", verdict="kept")
        assert len(ledger.by_kind("mergeability.pair")) == 2
        assert ledger.kinds() == {"case.merge": 1, "mergeability.pair": 2}

    def test_to_dict_schema(self):
        ledger = DecisionLedger()
        with ledger.frame("run", "run:merge"):
            ledger.decide("mergeability.pair", "pair:A,B",
                          verdict="rejected", evidence=["reason"])
        record = ledger.to_dict()
        assert record["kind"] == "repro-decisions"
        assert record["schema_version"] == 1
        assert record["decisions"][1]["parent"] == 0
        assert record["by_kind"] == {"mergeability.pair": 1, "run": 1}

    def test_write_round_trip(self, tmp_path):
        ledger = DecisionLedger()
        ledger.decide("run", "run:merge")
        path = tmp_path / "d.json"
        ledger.write(path)
        assert json.loads(path.read_text())["kind"] == "repro-decisions"

    def test_format_tree_indents_children(self):
        ledger = DecisionLedger()
        with ledger.frame("run", "run:merge"):
            ledger.decide("mergeability.pair", "pair:A,B")
        lines = ledger.format_tree().splitlines()
        assert lines[0].startswith("[run]")
        assert lines[1].startswith("  [mergeability.pair]")


@pytest.fixture
def pool():
    ledger = DecisionLedger()
    with ledger.frame("run", "run:merge"):
        ledger.decide("mergeability.pair", pair_subject("scan", "funcA"),
                      verdict="rejected",
                      evidence=["conflicting case values on sel1"],
                      modes=("funcA", "scan"))
        ledger.decide("mergeability.pair", pair_subject("funcA", "funcB"),
                      verdict="mergeable", modes=("funcA", "funcB"))
        with ledger.frame("merge.group", group_subject(["funcA", "funcB"]),
                          modes=("funcA", "funcB")):
            ledger.decide("exception.merge",
                          "constraint:set_false_path -to [get_pins r/D]",
                          verdict="uniquified",
                          evidence=["restricted to clocks of funcA"])
            ledger.decide("refinement.clock_stop", "clock:CK2@mux1/Z",
                          verdict="stopped", evidence=["case-blocked fanin"])
            ledger.decide("diagnostic", "code:SGN003", verdict="warning",
                          evidence=["repaired constraint"])
    return ledger


class TestQueries:
    def test_pair_query_is_order_free(self, pool):
        for query in ("pair:funcA,scan", "pair:scan,funcA",
                      "pair: scan , funcA"):
            found = pool.find(query)
            assert [d.verdict for d in found] == ["rejected"], query

    def test_group_query_is_order_free(self, pool):
        assert pool.find("group:funcB+funcA")[0].kind == "merge.group"

    def test_mode_query_spans_pairs_groups_and_attrs(self, pool):
        kinds = {d.kind for d in pool.find("mode:funcA")}
        assert "mergeability.pair" in kinds
        assert "merge.group" in kinds

    def test_clock_query(self, pool):
        found = pool.find("clock:CK2@mux1/Z")
        assert [d.verdict for d in found] == ["stopped"]

    def test_kind_and_verdict_queries(self, pool):
        assert len(pool.find("kind:mergeability.pair")) == 2
        assert [d.subject for d in pool.find("verdict:rejected")] \
            == ["pair:funcA,scan"]

    def test_code_query_finds_bridged_diagnostics(self, pool):
        assert pool.find("code:SGN003")[0].kind == "diagnostic"

    def test_constraint_query_searches_subject_and_evidence(self, pool):
        assert pool.find("constraint:set_false_path")[0].verdict \
            == "uniquified"
        assert pool.find("constraint:case-blocked")[0].kind \
            == "refinement.clock_stop"

    def test_bare_substring_fallback(self, pool):
        assert any(d.verdict == "rejected" for d in pool.find("sel1"))

    def test_no_match_returns_empty(self, pool):
        assert pool.find("pair:x,y") == []
        assert find_decisions(pool.records, "kind:nope") == []


class TestExplain:
    def test_chains_run_root_to_match(self, pool):
        chains = pool.explain("constraint:set_false_path")
        assert len(chains) == 1
        assert [d.kind for d in chains[0]] \
            == ["run", "merge.group", "exception.merge"]

    def test_explain_accepts_ledger_list_and_decision(self, pool):
        assert explain(pool, "verdict:stopped")
        assert explain(list(pool.records), "verdict:stopped")
        leaf = pool.find("verdict:stopped")[0]
        assert explain(leaf, "clock:CK2@mux1/Z") == [leaf.chain()]

    def test_explain_prefers_decision_records_attribute(self, pool):
        class FakeRun:
            decision_records = list(pool.records)

        assert explain(FakeRun(), "verdict:rejected")

    def test_format_chains(self, pool):
        text = format_chains(pool.explain("verdict:uniquified"))
        assert "[run]" in text
        assert "  [merge.group]" in text
        assert "    [exception.merge]" in text
        assert format_chains([]) == "no matching decisions"


class TestAmbient:
    def test_default_is_null(self):
        ledger = current().decisions
        assert isinstance(ledger, NullDecisions)
        assert not ledger.enabled
        assert ledger.decide("run", "x") is None
        with ledger.frame("run", "x") as frame:
            assert frame is not None  # inert shared handle

    def test_explaining_scope_installs_and_restores(self):
        ledger = DecisionLedger()
        with observing(decisions=ledger) as active:
            assert active.decisions is ledger
            assert current().decisions is ledger
        assert not current().decisions.enabled

    def test_nested_scope_restores_previous_ledger(self):
        ledger = DecisionLedger()
        with observing(decisions=ledger):
            with observing(decisions=DecisionLedger()):
                assert current().decisions is not ledger
            assert current().decisions is ledger
        assert not current().decisions.enabled

    def test_muted_suppresses_recording(self):
        ledger = DecisionLedger()
        with observing(decisions=ledger):
            ledger_in_scope = current().decisions
            ledger_in_scope.decide("run", "run:x")
            with observing(decisions=None):
                assert not current().decisions.enabled
                current().decisions.decide("mergeability.pair", "pair:A,B")
            assert current().decisions is ledger
        assert len(ledger) == 1


class TestKindContract:
    def test_every_declared_kind_has_a_description(self):
        for kind, description in DECISION_KINDS.items():
            assert kind and description
            assert kind == kind.strip().lower()
