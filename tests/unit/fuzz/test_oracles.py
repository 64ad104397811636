"""Unit tests for the differential oracle battery."""

import pytest

from repro.core.merger import MergeResult
from repro.fuzz import BREAK_ENV, ORACLE_NAMES
from repro.fuzz.generator import FuzzCase, generate_case
from repro.fuzz.oracles import OracleBattery, Violation


@pytest.fixture(autouse=True)
def no_ambient_break(monkeypatch):
    monkeypatch.delenv(BREAK_ENV, raising=False)


@pytest.fixture(scope="module")
def battery():
    return OracleBattery(jobs=2)


class TestCleanPipeline:
    def test_clean_case_passes_every_oracle(self, battery):
        verdict = battery.run(generate_case(3, 0, "scan-pairs"))
        assert verdict.ok
        assert not verdict.rejected
        assert verdict.oracles_run == ORACLE_NAMES
        assert verdict.violations == []

    def test_oracle_subset_runs_only_that_subset(self, battery):
        verdict = battery.run(generate_case(3, 0, "genclock-deep"),
                              oracles=("permutation",))
        assert verdict.oracles_run == ("permutation",)
        assert verdict.ok

    def test_verdict_to_dict_shape(self, battery):
        record = battery.run(generate_case(3, 1, "exception-stack"),
                             oracles=("jobs",)).to_dict()
        assert record["case_id"] == "exception-stack-0001"
        assert record["ok"] is True
        assert record["rejected"] is False
        assert record["oracles"] == ["jobs"]
        assert record["violations"] == []


class TestRejection:
    def test_unparseable_netlist_is_rejected_not_a_finding(
            self, battery):
        case = FuzzCase(case_id="bad-0000", family="sdc-mutate",
                        root_seed=0, case_seed=0,
                        netlist_text="this is not verilog at all (",
                        mode_texts=(("m0", "create_clock -name X"),))
        verdict = battery.run(case)
        assert verdict.rejected
        assert not verdict.violations
        assert verdict.reject_reason


class TestInjectedBreakage:
    """``REPRO_FUZZ_BREAK=<oracle>`` must make exactly that oracle
    fire — the end-to-end drill the CI smoke test relies on."""

    @pytest.mark.parametrize("oracle", ORACLE_NAMES)
    def test_break_hook_trips_its_oracle(self, oracle, monkeypatch,
                                         battery):
        monkeypatch.setenv(BREAK_ENV, oracle)
        verdict = battery.run(generate_case(3, 0, "scan-pairs"),
                              oracles=(oracle,))
        assert not verdict.ok
        assert [v.oracle for v in verdict.violations] == [oracle]
        assert verdict.violations[0].detail

    def test_break_hook_leaves_other_oracles_alone(self, monkeypatch,
                                                   battery):
        monkeypatch.setenv(BREAK_ENV, "jobs")
        verdict = battery.run(generate_case(3, 0, "scan-pairs"),
                              oracles=("permutation", "cache"))
        assert verdict.ok


class TestEquivalenceClockMaps:
    """The equivalence oracle matches clocks through the merge's maps."""

    NETLIST = """module pipe (clk, in1, out1);
  input clk, in1;
  output out1;
  wire n_inv1_Z, n_rA_Q;
  DFF rA (.D(in1), .CP(clk), .Q(n_rA_Q));
  INV inv1 (.A(n_rA_Q), .Z(n_inv1_Z));
  DFF rB (.D(n_inv1_Z), .CP(clk), .Q(out1));
endmodule
"""

    @pytest.fixture
    def renamed_clock_case(self):
        # Both modes call their clock CLK1, with other periods: the merge
        # keeps CLK1 for m0 and renames m1's to CLK1_1.
        return FuzzCase(
            case_id="clock-rename-0000", family="hand", root_seed=0,
            case_seed=0, netlist_text=self.NETLIST,
            mode_texts=(
                ("m0", "create_clock -name CLK1 -period 10 [get_ports clk]"),
                ("m1", "create_clock -name CLK1 -period 100 "
                       "[get_ports clk]")))

    def test_renamed_clock_is_matched_through_the_maps(
            self, battery, renamed_clock_case):
        verdict = battery.run(renamed_clock_case, oracles=("equivalence",))
        assert verdict.ok

    def test_wrong_clock_map_is_still_reported(
            self, battery, renamed_clock_case, monkeypatch):
        by_name = {"m0": {"CLK1": "CLK1"}, "m1": {"CLK1": "CLK1"}}
        monkeypatch.setattr(MergeResult, "clock_maps",
                            property(lambda result: by_name))
        verdict = battery.run(renamed_clock_case, oracles=("equivalence",))
        assert [v.oracle for v in verdict.violations] == ["equivalence"]


class TestViolation:
    def test_to_dict(self):
        violation = Violation(oracle="jobs", detail="mismatch",
                              mode_names=("a", "b"))
        assert violation.to_dict() == {
            "oracle": "jobs", "detail": "mismatch",
            "mode_names": ["a", "b"]}
