"""Unit tests for the clock-gating / generated-clock workload options."""

import pytest

from repro.core import merge_all
from repro.netlist import validate
from repro.sdc import CreateGeneratedClock
from repro.timing import BoundMode, ClockPropagation
from repro.workloads import ModeGroupSpec, WorkloadSpec, generate


@pytest.fixture(scope="module")
def rich():
    return generate(WorkloadSpec(
        name="rich", seed=11, n_domains=2, banks_per_domain=2,
        regs_per_bank=4, cloud_gates=10, n_config_bits=4,
        with_clock_gating=True, with_generated_clocks=True,
        groups=(ModeGroupSpec("g", 3),),
    ))


class TestStructure:
    def test_validates(self, rich):
        assert validate(rich.netlist).ok

    def test_icg_present(self, rich):
        assert rich.netlist.has_instance("icg0")
        assert rich.netlist.instance("icg0").cell.is_clock_gate

    def test_divider_present(self, rich):
        assert rich.netlist.has_instance("clkdiv")
        # The divider toggles: D tied to QN.
        d_pin = rich.netlist.find_pin("clkdiv/D")
        assert d_pin.net.driver.full_name == "clkdiv/QN"

    def test_generated_bank_exists(self, rich):
        regs = [i.name for i in rich.netlist.sequential_instances()
                if i.name.startswith("rgen")]
        assert len(regs) >= 2


class TestModes:
    def test_generated_clock_constraint(self, rich):
        mode = rich.modes[0]
        gens = mode.generated_clocks()
        assert len(gens) == 1
        assert gens[0].divide_by == 2
        assert gens[0].master_clock == "CLK0"

    def test_gating_enable_cased(self, rich):
        # Modes 0,1 enable the gate; mode 2 disables it.
        values = {}
        for mode in rich.modes:
            for case in mode.case_analyses():
                if case.objects.patterns[0] == "cfg0":
                    values[mode.name] = case.value
        assert values["g_m0"] == 1 and values["g_m2"] == 0

    def test_gated_clocking_differs_between_modes(self, rich):
        enabled = BoundMode(rich.netlist, rich.modes[0])
        disabled = BoundMode(rich.netlist, rich.modes[2])
        reg = rich.netlist.instance("r0_0_0").name
        on = ClockPropagation(enabled).clocks_at_register(reg)
        off = ClockPropagation(disabled).clocks_at_register(reg)
        assert on and not off

    def test_generated_clock_clocks_gen_bank(self, rich):
        bound = BoundMode(rich.netlist, rich.modes[0])
        prop = ClockPropagation(bound)
        assert prop.clocks_at_register("rgen0") == {"CLKDIV"}


class TestMerging:
    def test_rich_group_merges_exactly(self, rich):
        run = merge_all(rich.netlist, rich.modes)
        assert run.merged_count == 1
        assert all(o.result and o.result.ok for o in run.outcomes)
        merged = run.outcomes[0].result.merged
        # One generated clock survives the union (deduplicated).
        assert len(merged.of_type(CreateGeneratedClock)) == 1
