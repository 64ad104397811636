"""Unit tests for the hold-analysis extension of the STA engine."""

import pytest

from repro.sdc import parse_mode
from repro.timing import BoundMode, Clock, UnitDelayModel, run_sta
from repro.timing.sta import hold_relation

UNIT = UnitDelayModel()


def sta(netlist, sdc, **kwargs):
    bound = BoundMode(netlist, parse_mode(sdc))
    kwargs.setdefault("setup_time", 0.0)
    kwargs.setdefault("hold_time", 0.0)
    return run_sta(bound, UNIT, analyze_hold=True, **kwargs)


def clock(period, rise=0.0):
    return Clock("c", period, (rise, rise + period / 2), frozenset())


class TestHoldRelation:
    def test_same_clock_is_zero(self):
        assert hold_relation(clock(10), clock(10)) == pytest.approx(0.0)

    def test_shifted_capture_is_negative(self):
        launch = Clock("a", 10, (2, 7), frozenset())
        capture = Clock("b", 10, (0, 5), frozenset())
        # Launch at 2, previous capture edge at 0: relation -2.
        assert hold_relation(launch, capture) == pytest.approx(-2.0)

    def test_fast_capture(self):
        # Launch 0/20/..., capture every 5: coincident edge -> 0.
        assert hold_relation(clock(20), clock(5)) == pytest.approx(0.0)


class TestHoldSlacks:
    def test_hold_disabled_by_default(self, pipeline_netlist):
        bound = BoundMode(pipeline_netlist, parse_mode(
            "create_clock -name c -period 10 [get_ports clk]"))
        result = run_sta(bound, UNIT)
        assert result.hold_slacks == {}
        assert result.worst_hold_slack == float("inf")

    def test_basic_hold_slack(self, pipeline_netlist):
        result = sta(pipeline_netlist,
                     "create_clock -name c -period 10 [get_ports clk]")
        row = result.hold_slacks["rB/D"]
        # Min arrival = 1 (ck2q) + 1 (inv) = 2; hold required = 0.
        assert row.arrival == pytest.approx(2.0)
        assert row.required == pytest.approx(0.0)
        assert row.slack == pytest.approx(2.0)

    def test_hold_margin(self, pipeline_netlist):
        result = sta(pipeline_netlist,
                     "create_clock -name c -period 10 [get_ports clk]",
                     hold_time=0.5)
        assert result.hold_slacks["rB/D"].slack == pytest.approx(1.5)

    def test_min_delay_override(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_min_delay 3 -to [get_pins rB/D]
        """)
        row = result.hold_slacks["rB/D"]
        assert row.required == pytest.approx(3.0)
        assert row.slack == pytest.approx(-1.0)  # arrival 2 < 3: violation

    def test_hold_only_false_path_keeps_setup_kills_nothing_twice(
            self, pipeline_netlist):
        # A hold-only FP leaves setup timed; hold side currently follows
        # the resolved state (not false) so the row remains.
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -hold -to [get_pins rB/D]
        """)
        assert "rB/D" in result.endpoint_slacks

    def test_mcp_hold_moves_check(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_multicycle_path 1 -hold -to [get_pins rB/D]
        """)
        row = result.hold_slacks["rB/D"]
        assert row.required == pytest.approx(-10.0)

    def test_input_min_delay_seed(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_input_delay -min 0.5 -clock c [get_ports in1]
            set_input_delay -max 2.5 -clock c [get_ports in1]
        """)
        setup_row = result.endpoint_slacks["rA/D"]
        hold_row = result.hold_slacks["rA/D"]
        assert setup_row.arrival == pytest.approx(2.5)
        assert hold_row.arrival == pytest.approx(0.5)

    def test_false_path_kills_hold_too(self, pipeline_netlist):
        result = sta(pipeline_netlist, """
            create_clock -name c -period 10 [get_ports clk]
            set_false_path -to [get_pins rB/D]
        """)
        assert "rB/D" not in result.hold_slacks
