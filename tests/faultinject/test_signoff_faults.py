"""Fault injection against the sign-off guard and the watchdog budgets.

Injects an equivalence-breaking bug into the merge pipeline and asserts
the guard localizes the culprit to the correct mode/constraint and
repairs the merge within its attempt budget, leaving an SGN diagnostic
trail; and that a pathological refinement input hits its watchdog budget
and degrades (never hangs) under a recovery policy.
"""

import pytest

from repro.core import check_mode_equivalence, merge_all, merge_modes
from repro.core.merger import MergeOptions
from repro.diagnostics import DegradationPolicy, DiagnosticCollector
from repro.errors import BudgetExceededError
from repro.sdc import parse_mode

pytestmark = pytest.mark.faultinject

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


class TestEquivalenceBreakingFault:
    """A buggy exception uniquification (Section 3.1.10) leaks mode A's
    false path into the merged mode unrestricted, so the merged mode
    false-paths a bundle that mode B still times."""

    @pytest.fixture(autouse=True)
    def broken_uniquify(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.exceptions_merge.uniquify_exception",
            lambda constraint, own, other: constraint)

    def test_fault_actually_breaks_signoff(self, pipeline_netlist):
        result = merge_modes(pipeline_netlist, _modes(),
                             options=MergeOptions(strict=False))
        assert not result.ok
        assert result.validation_mismatches

    def test_guard_localizes_to_the_injected_constraint(self,
                                                        pipeline_netlist):
        run = merge_all(pipeline_netlist, _modes(), GUARDED)
        located = [d for d in run.diagnostics if d.code == "SGN002"]
        # Mode-level localization names A; constraint-level localization
        # names the exact injected false path.
        assert any(d.message.startswith("culprit constraint(s) of mode 'A'")
                   for d in located)
        assert any("set_false_path -to [get_pins rB/D]" in d.message
                   for d in located)

    def test_guard_repairs_within_budget(self, pipeline_netlist):
        run = merge_all(pipeline_netlist, _modes(), GUARDED)
        assert len(run.outcomes) == 1
        outcome = run.outcomes[0]
        assert outcome.repaired
        assert outcome.result.ok
        # The repair is verified against the ORIGINAL modes.
        report = check_mode_equivalence(
            pipeline_netlist, _modes(), outcome.result.merged,
            clock_maps=outcome.result.clock_maps)
        assert report.equivalent
        codes = [d.code for d in run.diagnostics]
        for expected in ("SGN001", "SGN002", "SGN003"):
            assert expected in codes
        assert "SGN005" not in codes  # budget was sufficient

    def test_sibling_group_is_untouched(self, pipeline_netlist):
        # An out-of-tolerance uncertainty makes C non-mergeable with A/B,
        # so the run has a second, disjoint group.
        tick = "set_clock_uncertainty 0.1 [get_clocks CK]\n"
        modes = [parse_mode(MODE_A + tick, "A"),
                 parse_mode(MODE_B + tick, "B"),
                 parse_mode(MODE_B +
                            "set_clock_uncertainty 5 [get_clocks CK]", "C")]
        run = merge_all(pipeline_netlist, modes, GUARDED)
        by_names = {tuple(o.mode_names): o for o in run.outcomes}
        assert by_names[("C",)].result is not None
        assert not by_names[("C",)].repaired


class TestPathologicalRefinement:
    """A refinement that never converges must hit the watchdog budget and
    degrade under a recovery policy — never hang."""

    @pytest.fixture(autouse=True)
    def endless_three_pass(self, monkeypatch):
        import repro.core.merger as merger

        real = merger.run_three_pass

        def pathological(context, budget=None):
            if budget is not None and len(context.modes) > 1:
                while True:  # "converges" only when the watchdog fires
                    budget.check_time("three_pass")
            return real(context, budget)

        monkeypatch.setattr("repro.core.merger.run_three_pass", pathological)

    def test_strict_raises_budget_error(self, pipeline_netlist):
        opts = MergeOptions(budget_seconds=0.2)
        with pytest.raises(BudgetExceededError) as excinfo:
            merge_modes(pipeline_netlist, _modes(), options=opts)
        assert excinfo.value.engine == "three_pass"
        assert excinfo.value.kind == "wall-clock"

    def test_lenient_degrades_with_sgn006(self, pipeline_netlist):
        opts = MergeOptions(policy=DegradationPolicy.LENIENT,
                            budget_seconds=0.2)
        collector = DiagnosticCollector(DegradationPolicy.LENIENT)
        run = merge_all(pipeline_netlist, _modes(), opts,
                        collector=collector)
        assert any(d.code == "SGN006" for d in run.diagnostics)
        by_names = {tuple(o.mode_names): o for o in run.outcomes}
        # The group degrades to individual modes, each merged fine
        # (the pathological loop only triggers on multi-mode merges).
        assert by_names[("A",)].result is not None
        assert by_names[("B",)].result is not None
        seen = sorted(n for o in run.outcomes for n in o.mode_names)
        assert seen == ["A", "B"]

    def test_wall_clock_budget_also_degrades(self, pipeline_netlist):
        # No caller collector: the recovery policy comes from the
        # options alone, and merge_all's own sink still records SGN006.
        opts = MergeOptions(policy=DegradationPolicy.LENIENT,
                            budget_seconds=0.2)
        run = merge_all(pipeline_netlist, _modes(), opts)
        assert any(d.code == "SGN006" for d in run.diagnostics)
        assert all(len(o.mode_names) == 1 for o in run.outcomes)
        seen = sorted(n for o in run.outcomes for n in o.mode_names)
        assert seen == ["A", "B"]


class TestGuardedCli:
    def test_cli_signoff_guard_repairs_and_reports(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.core.exceptions_merge.uniquify_exception",
            lambda constraint, own, other: constraint)
        from repro.cli import main
        from repro.netlist import write_verilog
        from repro.netlist import NetlistBuilder

        b = NetlistBuilder("pipe")
        b.inputs("clk", "in1")
        rA = b.dff("rA", d="in1", clk="clk")
        inv1 = b.inv("inv1", rA.q)
        rB = b.dff("rB", d=inv1.out, clk="clk")
        b.output("out1", rB.q)
        (tmp_path / "chip.v").write_text(write_verilog(b.build()))
        (tmp_path / "a.sdc").write_text(MODE_A)
        (tmp_path / "b.sdc").write_text(MODE_B)
        code = main(["--policy", "lenient",
                     "merge", str(tmp_path / "chip.v"),
                     str(tmp_path / "a.sdc"), str(tmp_path / "b.sdc"),
                     "-o", str(tmp_path / "out"), "--signoff-guard"])
        assert code == 1  # merged, but with repair warnings
        captured = capsys.readouterr()
        assert "[repaired]" in captured.out
        assert "SGN003" in captured.err
        assert list((tmp_path / "out").glob("*.sdc"))
