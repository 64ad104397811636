"""Unit tests for the SDC parser."""

import pytest

from repro.errors import SdcCommandError
from repro.sdc import (
    ClockGroupKind,
    CreateClock,
    CreateGeneratedClock,
    RefKind,
    SetClockGroups,
    SetClockLatency,
    SetClockSense,
    SetClockTransition,
    SetClockUncertainty,
    SetDisableTiming,
    SetDrive,
    SetDrivingCell,
    SetFalsePath,
    SetInputDelay,
    SetInputTransition,
    SetLoad,
    SetMaxDelay,
    SetMinDelay,
    SetMulticyclePath,
    SetOutputDelay,
    SetPropagatedClock,
    parse_mode,
    parse_sdc,
)


def one(text):
    mode = parse_mode(text)
    assert len(mode) == 1, mode.constraints
    return mode.constraints[0]


class TestCreateClock:
    def test_full_form(self):
        clock = one("create_clock -name clkA -period 10 "
                    "-waveform {0 5} [get_ports clk1]")
        assert isinstance(clock, CreateClock)
        assert clock.name == "clkA"
        assert clock.period == 10.0
        assert clock.waveform == (0.0, 5.0)
        assert clock.sources.kind is RefKind.PORT
        assert clock.sources.patterns == ("clk1",)

    def test_p_abbreviation(self):
        clock = one("create_clock -p 10 -name clkA [get_port clk1]")
        assert clock.period == 10.0

    def test_default_waveform(self):
        clock = one("create_clock -name c -period 8 [get_ports clk]")
        assert clock.effective_waveform() == (0.0, 4.0)

    def test_virtual_clock(self):
        clock = one("create_clock -name vclk -period 10")
        assert clock.is_virtual

    def test_name_defaults_to_source(self):
        clock = one("create_clock -period 10 [get_ports clk1]")
        assert clock.name == "clk1"

    def test_add_flag(self):
        clock = one("create_clock -name c -period 5 -add [get_ports clk]")
        assert clock.add

    def test_missing_period_rejected(self):
        with pytest.raises(SdcCommandError):
            parse_mode("create_clock -name c [get_ports clk]")

    def test_signature_ignores_name(self):
        a = one("create_clock -name x -period 10 [get_ports clk]")
        b = one("create_clock -name y -period 10 [get_ports clk]")
        assert a.signature() == b.signature()


class TestGeneratedClock:
    def test_divide_by(self):
        clock = one("create_generated_clock -name div2 -divide_by 2 "
                    "-source [get_ports clk] [get_pins r1/Q]")
        assert isinstance(clock, CreateGeneratedClock)
        assert clock.divide_by == 2
        assert clock.source.patterns == ("clk",)
        assert clock.sources.patterns == ("r1/Q",)

    def test_missing_source_rejected(self):
        with pytest.raises(SdcCommandError):
            parse_mode("create_generated_clock -name g [get_pins r1/Q]")


class TestClockGroups:
    def test_physically_exclusive(self):
        groups = one("set_clock_groups -physically_exclusive -name x "
                     "-group [get_clocks a] -group [get_clocks b]")
        assert isinstance(groups, SetClockGroups)
        assert groups.kind is ClockGroupKind.PHYSICALLY_EXCLUSIVE
        assert groups.groups == (("a",), ("b",))

    def test_asynchronous(self):
        groups = one("set_clock_groups -asynchronous -group {a} -group {b}")
        assert groups.kind is ClockGroupKind.ASYNCHRONOUS

    def test_single_group_rejected(self):
        with pytest.raises(SdcCommandError):
            parse_mode("set_clock_groups -group {a}")


class TestClockConstraints:
    def test_latency(self):
        latency = one("set_clock_latency -min 0.2 [get_clocks clkB]")
        assert isinstance(latency, SetClockLatency)
        assert latency.value == 0.2 and latency.min_flag and latency.is_min

    def test_uncertainty_simple(self):
        unc = one("set_clock_uncertainty 0.1 [get_clocks clk]")
        assert isinstance(unc, SetClockUncertainty)
        assert unc.value == 0.1

    def test_uncertainty_from_to(self):
        unc = one("set_clock_uncertainty -setup 0.3 -from [get_clocks a] "
                  "-to [get_clocks b]")
        assert unc.from_clock == "a" and unc.to_clock == "b" and unc.setup

    def test_transition(self):
        tr = one("set_clock_transition -max 0.15 [get_clocks clk]")
        assert isinstance(tr, SetClockTransition)
        assert tr.max_flag

    def test_propagated(self):
        prop = one("set_propagated_clock [get_clocks clk]")
        assert isinstance(prop, SetPropagatedClock)

    def test_clock_sense_stop(self):
        sense = one("set_clock_sense -stop_propagation "
                    "-clock [get_clocks clkA] [get_pins mux1/Z]")
        assert isinstance(sense, SetClockSense)
        assert sense.stop_propagation
        assert sense.clocks.patterns == ("clkA",)
        assert sense.pins.patterns == ("mux1/Z",)


class TestExternalDelays:
    def test_input_delay(self):
        delay = one("set_input_delay 2.0 -clock ClkA [get_ports in1]")
        assert isinstance(delay, SetInputDelay)
        assert delay.value == 2.0 and delay.clock == "ClkA"

    def test_output_delay_add(self):
        delay = one("set_output_delay 1.5 -clock [get_clocks c] -add_delay "
                    "-max [get_ports out1]")
        assert isinstance(delay, SetOutputDelay)
        assert delay.add_delay and delay.max_flag


class TestCaseAndDisable:
    def test_case_values(self):
        assert one("set_case_analysis 0 sel1").value == 0
        assert one("set_case_analysis 1 [get_ports sel2]").value == 1

    def test_case_bad_value(self):
        with pytest.raises(SdcCommandError):
            parse_mode("set_case_analysis 2 sel1")

    def test_disable_timing(self):
        disable = one("set_disable_timing -from A -to Z [get_cells u1]")
        assert isinstance(disable, SetDisableTiming)
        assert disable.from_pin == "A" and disable.to_pin == "Z"


class TestExceptions:
    def test_false_path_forms(self):
        fp = one("set_false_path -from [get_clocks a] "
                 "-through [get_pins u1/Z] -to [get_pins r1/D]")
        assert isinstance(fp, SetFalsePath)
        assert fp.spec.from_refs[0].kind is RefKind.CLOCK
        assert len(fp.spec.through_refs) == 1

    def test_false_path_bare_bracket(self):
        fp = one("set_false_path -through [and1/Z]")
        assert fp.spec.through_refs[0].kind is RefKind.AUTO
        assert fp.spec.through_refs[0].patterns == ("and1/Z",)

    def test_false_path_needs_selection(self):
        with pytest.raises(SdcCommandError):
            parse_mode("set_false_path")

    def test_multiple_through_ordered(self):
        fp = one("set_false_path -through u1/Z -through u2/Z")
        assert [r.patterns for r in fp.spec.through_refs] \
            == [("u1/Z",), ("u2/Z",)]

    def test_multicycle(self):
        mcp = one("set_multicycle_path 2 -setup -from [get_pins rA/CP]")
        assert isinstance(mcp, SetMulticyclePath)
        assert mcp.multiplier == 2 and mcp.setup

    def test_min_max_delay(self):
        mx = one("set_max_delay 5.0 -from [get_pins a/CP] -to [get_pins b/D]")
        mn = one("set_min_delay 0.5 -to [get_pins b/D]")
        assert isinstance(mx, SetMaxDelay) and mx.value == 5.0
        assert isinstance(mn, SetMinDelay) and mn.value == 0.5


class TestDriveLoad:
    def test_input_transition(self):
        tr = one("set_input_transition 0.2 [get_ports in*]")
        assert isinstance(tr, SetInputTransition)

    def test_drive(self):
        dr = one("set_drive 1.5 [get_ports in1]")
        assert isinstance(dr, SetDrive)

    def test_driving_cell(self):
        dc = one("set_driving_cell -lib_cell BUFX4 -pin Z [get_ports in1]")
        assert isinstance(dc, SetDrivingCell)
        assert dc.lib_cell == "BUFX4"

    def test_load(self):
        ld = one("set_load 0.05 [get_ports out1]")
        assert isinstance(ld, SetLoad)


class TestParserInfrastructure:
    def test_ignored_commands_recorded(self):
        result = parse_sdc("set_units -time ns\ncurrent_design top\n")
        assert result.ignored == ["set_units", "current_design"]
        assert len(result.mode) == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SdcCommandError):
            parse_mode("made_up_command 1")

    def test_unknown_option_rejected(self):
        with pytest.raises(SdcCommandError):
            parse_mode("set_false_path -bogus x")

    def test_negative_number_not_an_option(self):
        delay = one("set_input_delay -0.5 -clock c [get_ports in1]")
        assert delay.value == -0.5

    @pytest.mark.parametrize("text", [
        "set_output_delay 0.5 -clock -clock [get_clocks CLK0] "
        "[get_ports out0]",
        "create_generated_clock -name -name -source [get_ports clk] "
        "-divide_by 2 [get_pins r/Q]",
    ])
    def test_flag_is_not_an_option_value(self, text):
        with pytest.raises(SdcCommandError, match="got the flag"):
            parse_mode(text)

    def test_negative_number_is_an_option_value(self):
        clock = one("create_clock -name c -period -5 [get_ports clk]")
        assert clock.period == -5

    def test_role_queries(self):
        fp = one("set_false_path -from [all_inputs] -to [all_outputs]")
        assert fp.spec.from_refs[0].patterns == ("<all_inputs>",)
        assert fp.spec.to_refs[0].patterns == ("<all_outputs>",)
