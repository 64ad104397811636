"""Unit tests for the STA engine (hand-computed with the unit delay model)."""

import pytest

from repro.sdc import parse_mode
from repro.timing import (
    BoundMode,
    Clock,
    UnitDelayModel,
    run_sta,
    setup_relation,
)

UNIT = UnitDelayModel()


def sta(netlist, sdc, setup_time=0.0):
    bound = BoundMode(netlist, parse_mode(sdc))
    return run_sta(bound, UNIT, setup_time=setup_time)


def clock(period, rise=0.0):
    return Clock("c", period, (rise, rise + period / 2), frozenset())


class TestSetupRelation:
    def test_same_clock(self):
        assert setup_relation(clock(10), clock(10)) == pytest.approx(10)

    def test_fast_to_slow(self):
        # Launch every 5, capture at 20: tightest is 5.
        assert setup_relation(clock(5), clock(20)) == pytest.approx(5)

    def test_slow_to_fast(self):
        assert setup_relation(clock(20), clock(5)) == pytest.approx(5)

    def test_shifted_capture(self):
        launch = Clock("a", 10, (0, 5), frozenset())
        capture = Clock("b", 10, (3, 8), frozenset())
        assert setup_relation(launch, capture) == pytest.approx(3)

    def test_incommensurate_uses_bounded_expansion(self):
        rel = setup_relation(clock(10), clock(10 / 3.0))
        assert 0 < rel <= 10 / 3.0 + 1e-9


class TestSlackComputation:
    def test_single_cycle_path(self, pipeline_netlist):
        result = sta(pipeline_netlist,
                     "create_clock -name c -period 10 [get_ports clk]")
        # Path rA (ck2q 1.0) -> inv1 (1.0) -> rB/D: arrival 2.0,
        # required 10.0, slack 8.0 (unit delays, zero setup).
        row = result.endpoint_slacks["rB/D"]
        assert row.arrival == pytest.approx(2.0)
        assert row.required == pytest.approx(10.0)
        assert row.slack == pytest.approx(8.0)

    def test_false_path_not_timed(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -to [get_pins rB/D]
        """)
        assert "rB/D" not in result.endpoint_slacks

    def test_multicycle_relaxes_required(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_multicycle_path 2 -to [get_pins rB/D]
        """)
        row = result.endpoint_slacks["rB/D"]
        assert row.required == pytest.approx(20.0)
        assert row.state.mcp_setup == 2

    def test_max_delay_override(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_max_delay 1.5 -to [get_pins rB/D]
        """)
        row = result.endpoint_slacks["rB/D"]
        assert row.required == pytest.approx(1.5)
        assert row.slack == pytest.approx(-0.5)

    def test_uncertainty_tightens(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_clock_uncertainty 0.5 [get_clocks c]
        """)
        assert result.endpoint_slacks["rB/D"].required == pytest.approx(9.5)

    def test_setup_margin(self, pipeline_netlist):
        bound = BoundMode(pipeline_netlist, parse_mode(
            "create_clock -name c -period 10 [get_ports clk]"))
        result = run_sta(bound, UNIT, setup_time=0.25)
        assert result.endpoint_slacks["rB/D"].required == pytest.approx(9.75)

    def test_input_delay_arrival(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_input_delay 3 -clock c [get_ports in1]
        """)
        # in1 (3.0) -> rA/D via the input net: arrival 3.0.
        row = result.endpoint_slacks["rA/D"]
        assert row.arrival == pytest.approx(3.0)

    def test_output_delay_required(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_output_delay 2 -clock c [get_ports out1]
        """)
        row = result.endpoint_slacks["out1"]
        # rB ck2q 1.0 -> out1; required = 10 - 2 = 8.
        assert row.arrival == pytest.approx(1.0)
        assert row.required == pytest.approx(8.0)
        assert row.slack == pytest.approx(7.0)

    def test_clock_latency_shifts_launch(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_clock_latency -max 1.0 [get_clocks c]
        """)
        # Launch shifted +1 (max latency), capture uses min latency 0.
        assert result.endpoint_slacks["rB/D"].arrival == pytest.approx(3.0)

    def test_worst_slack_and_tns(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 1 [get_ports clk]
        """)
        assert result.worst_slack == pytest.approx(-1.0)
        assert result.tns <= result.worst_slack

    def test_exclusive_clocks_skipped(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name a -period 10 [get_ports clk]
            create_clock -name b -period 2 -add [get_ports clk]
            set_clock_groups -physically_exclusive -group {a} -group {b}
        """)
        row = result.endpoint_slacks["rB/D"]
        # Worst allowed pair is b->b (period 2), not a->b (relation < 2).
        assert (row.launch_clock, row.capture_clock) == ("b", "b")

    def test_reconvergent_false_branch_excluded(self, reconvergent_netlist):
        result = sta(reconvergent_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -through [get_pins p2/Z]
        """)
        row = result.endpoint_slacks["rE/D"]
        # Only the buf branch is timed: 1 (ck2q) + 1 (buf) + 1 (and) = 3.
        assert row.arrival == pytest.approx(3.0)

    def test_runtime_recorded(self, pipeline_netlist):
        result = sta(pipeline_netlist,
                     "create_clock -name c -period 10 [get_ports clk]")
        assert result.runtime_seconds > 0
        # Only rB/D is timed: rA/D has no arrival without an input delay.
        assert result.timed_relationship_count == 1
