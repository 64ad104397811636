"""Unit tests for the sign-off guard (verify -> localize -> repair)."""

from repro.core import check_mode_equivalence, merge_all
from repro.core.merger import MergeOptions
from repro.core.mergeability import GroupOutcome
from repro.core.signoff import SignoffGuard
from repro.diagnostics import DegradationPolicy, DiagnosticCollector
from repro.sdc import parse_mode

MODE_A = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -to [get_pins rB/D]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
"""

GUARDED = MergeOptions(policy=DegradationPolicy.LENIENT, signoff_guard=True)


def _modes():
    return [parse_mode(MODE_A, "A"), parse_mode(MODE_B, "B")]


def _break_uniquification(monkeypatch):
    """Simulate a buggy 3.1.10 rewrite: the exception is merged without
    being restricted to its own mode's clocks, so the merged mode
    false-paths a bundle mode B still times -> validation fails."""
    monkeypatch.setattr("repro.core.exceptions_merge.uniquify_exception",
                        lambda constraint, own, other: constraint)


class TestGuardedOutcome:
    def test_defaults(self):
        outcome = GroupOutcome(["A"], None)
        assert outcome.error == ""
        assert not outcome.repaired


class TestGuardNotEngaged:
    def test_clean_merge_produces_no_sgn_diagnostics(self, pipeline_netlist):
        run = merge_all(pipeline_netlist, _modes(), GUARDED)
        assert run.outcomes[0].result.ok
        assert not run.outcomes[0].repaired
        assert not any(d.code.startswith("SGN") for d in run.diagnostics)

    def test_guard_off_by_default(self, pipeline_netlist, monkeypatch):
        _break_uniquification(monkeypatch)
        run = merge_all(pipeline_netlist, _modes(),
                        MergeOptions(policy=DegradationPolicy.LENIENT))
        assert not any(d.code.startswith("SGN") for d in run.diagnostics)


class TestGuardRepair:
    def test_localizes_and_repairs_broken_uniquification(
            self, pipeline_netlist, monkeypatch):
        _break_uniquification(monkeypatch)
        collector = DiagnosticCollector(DegradationPolicy.LENIENT)
        run = merge_all(pipeline_netlist, _modes(), GUARDED,
                        collector=collector)
        assert len(run.outcomes) == 1
        outcome = run.outcomes[0]
        assert outcome.mode_names == ["A", "B"]
        assert outcome.repaired
        assert outcome.result.ok
        assert run.repaired_count == 1

    def test_diagnostic_trail(self, pipeline_netlist, monkeypatch):
        _break_uniquification(monkeypatch)
        run = merge_all(pipeline_netlist, _modes(), GUARDED)
        codes = [d.code for d in run.diagnostics]
        assert "SGN001" in codes  # guard engaged
        assert "SGN002" in codes  # culprit localized
        assert "SGN003" in codes  # repaired
        # The constraint-level localization names the culprit precisely.
        located = [d for d in run.diagnostics if d.code == "SGN002"]
        assert any("set_false_path" in d.message for d in located)
        repaired = [d for d in run.diagnostics if d.code == "SGN003"]
        assert any("'A'" in d.message for d in repaired)

    def test_repair_verifies_against_original_modes(self, pipeline_netlist,
                                                    monkeypatch):
        """The accepted repair must be sign-off equivalent to the
        ORIGINAL, unmodified modes — not to the repaired variants."""
        _break_uniquification(monkeypatch)
        run = merge_all(pipeline_netlist, _modes(), GUARDED)
        merged = run.outcomes[0].result.merged
        report = check_mode_equivalence(
            pipeline_netlist, _modes(), merged,
            clock_maps=run.outcomes[0].result.clock_maps)
        assert report.equivalent

    def test_exhausted_budget_reports_sgn005_and_falls_back(
            self, pipeline_netlist, monkeypatch):
        _break_uniquification(monkeypatch)
        tight = MergeOptions(policy=DegradationPolicy.LENIENT,
                             signoff_guard=True, max_repair_attempts=1)
        run = merge_all(pipeline_netlist, _modes(), tight)
        codes = [d.code for d in run.diagnostics]
        assert "SGN005" in codes
        # Bisection fallback still lands every mode in an outcome.
        seen = sorted(n for o in run.outcomes for n in o.mode_names)
        assert seen == ["A", "B"]

    def test_demotes_when_no_constraint_is_attributable(
            self, pipeline_netlist, monkeypatch):
        """A fault not caused by any input constraint (here: a merge step
        corrupting the merged mode) cannot be repaired by rewriting a
        constraint; the guard's last resort is demoting a culprit mode."""
        import repro.core.merger as merger

        real = merger.merge_exceptions
        bogus = list(parse_mode("set_false_path -to [get_pins rB/D]",
                                "x"))[0]

        def corrupt(context):
            result = real(context)
            if len(context.modes) > 1:
                context.merged.add(bogus)
            return result

        monkeypatch.setattr("repro.core.merger.merge_exceptions", corrupt)
        clock_only = [parse_mode(MODE_B, "A"), parse_mode(MODE_B, "B")]
        run = merge_all(pipeline_netlist, clock_only, GUARDED)
        codes = [d.code for d in run.diagnostics]
        assert "SGN004" in codes
        by_names = {tuple(o.mode_names): o for o in run.outcomes}
        # Both modes survive individually, flagged as guard-produced.
        assert by_names[("A",)].result is not None
        assert by_names[("B",)].result is not None
        assert all(o.repaired for o in run.outcomes)


class TestGuardInternals:
    def test_attempt_budget_is_enforced(self, pipeline_netlist):
        calls = []

        def counting_merge(netlist, modes, name=None, options=None):
            calls.append([m.name for m in modes])
            raise RuntimeError("never succeeds")

        guard = SignoffGuard(pipeline_netlist, _modes(),
                             MergeOptions(max_repair_attempts=3),
                             DiagnosticCollector(),
                             merge_fn=counting_merge)
        failed = type("F", (), {})()
        failed.outcome = type("O", (), {"residuals": ["r"]})()
        failed.validation_mismatches = []
        assert guard.repair_group(["A", "B"], failed) is None
        assert len(calls) == 3

    def test_localize_modes_narrows_a_large_group(self, pipeline_netlist):
        """Only subsets containing both X and Y fail -> the guard should
        narrow the culprit set to exactly {X, Y}."""
        names = [f"m{i}" for i in range(8)] + ["X", "Y"]
        modes = [parse_mode(MODE_B, n) for n in names]

        class FakeResult:
            def __init__(self, ok):
                self.ok = ok

        def fake_merge(netlist, merge_modes_arg, name=None, options=None):
            present = {m.name for m in merge_modes_arg}
            return FakeResult(not {"X", "Y"} <= present)

        guard = SignoffGuard(pipeline_netlist, modes,
                             MergeOptions(max_repair_attempts=100),
                             DiagnosticCollector(), merge_fn=fake_merge)
        assert sorted(guard._localize_modes(names)) == ["X", "Y"]
