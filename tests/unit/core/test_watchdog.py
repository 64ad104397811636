"""Unit tests for the refinement watchdog budgets."""

import pytest

from repro.core import merge_all, merge_modes
from repro.core.merger import MergeOptions
from repro.core.watchdog import WatchdogBudget
from repro.diagnostics import DegradationPolicy, DiagnosticCollector
from repro.errors import BudgetExceededError, MergeStepError
from repro.sdc import parse_mode, write_mode

MODE_A = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -to [get_pins rB/D]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
"""


def _modes():
    return [parse_mode(MODE_A, "A"), parse_mode(MODE_B, "B")]


class TestWatchdogBudget:
    def test_no_limits_is_disabled_and_never_raises(self):
        budget = WatchdogBudget().start()
        assert not budget.enabled
        assert budget.remaining_seconds() is None
        budget.check_time("engine")

    def test_any_limit_enables(self):
        assert WatchdogBudget(budget_seconds=1.0).enabled
        assert WatchdogBudget(budget_seconds=0.0).enabled

    def test_time_budget_raises_after_the_deadline(self):
        budget = WatchdogBudget(budget_seconds=0.0).start()
        with pytest.raises(BudgetExceededError) as excinfo:
            # Any elapsed time at all is past a zero-second deadline.
            budget.check_time("three_pass")
        assert excinfo.value.engine == "three_pass"
        assert excinfo.value.kind == "wall-clock"
        assert excinfo.value.limit == "0s"

    def test_options_watchdog_factory(self):
        assert MergeOptions().watchdog() is None
        budget = MergeOptions(budget_seconds=3.0).watchdog()
        assert isinstance(budget, WatchdogBudget)
        assert budget.budget_seconds == 3.0
        assert 0.0 < budget.remaining_seconds() <= 3.0


class TestBudgetedMerge:
    # A zero-second budget trips at the first check, which clock
    # refinement makes before its propagation walks.
    def test_strict_propagates_budget_error(self, pipeline_netlist):
        opts = MergeOptions(budget_seconds=0.0)
        with pytest.raises(BudgetExceededError) as excinfo:
            merge_modes(pipeline_netlist, _modes(), options=opts)
        assert excinfo.value.engine == "clock_refinement"

    def test_lenient_wraps_budget_error_as_step_error(self, pipeline_netlist):
        opts = MergeOptions(budget_seconds=0.0,
                            policy=DegradationPolicy.LENIENT)
        with pytest.raises(MergeStepError) as excinfo:
            merge_modes(pipeline_netlist, _modes(), options=opts)
        assert excinfo.value.step == "clock_refinement"
        assert isinstance(excinfo.value.cause, BudgetExceededError)

    def test_generous_budget_changes_nothing(self, pipeline_netlist):
        free = merge_modes(pipeline_netlist, _modes())
        budgeted = merge_modes(pipeline_netlist, _modes(),
                               options=MergeOptions(budget_seconds=60.0))
        assert budgeted.ok
        assert write_mode(budgeted.merged) == write_mode(free.merged)

    def test_merge_all_lenient_degrades_with_sgn006(self, pipeline_netlist):
        opts = MergeOptions(budget_seconds=0.0,
                            policy=DegradationPolicy.LENIENT)
        collector = DiagnosticCollector(DegradationPolicy.LENIENT)
        run = merge_all(pipeline_netlist, _modes(), opts,
                        collector=collector)
        # The run completes: every mode lands in exactly one outcome.
        seen = sorted(n for o in run.outcomes for n in o.mode_names)
        assert seen == ["A", "B"]
        assert any(d.code == "SGN006" for d in run.diagnostics)

    def test_merge_all_strict_raises_budget_error(self, pipeline_netlist):
        opts = MergeOptions(budget_seconds=0.0)
        with pytest.raises(BudgetExceededError):
            merge_all(pipeline_netlist, _modes(), opts)
