"""Unit tests for the synthetic workload generator."""

import pytest

from repro.netlist import validate
from repro.workloads import (
    ModeGroupSpec,
    WorkloadSpec,
    figure2_modes,
    generate,
    load_design,
    paper_suite,
)


@pytest.fixture(scope="module")
def small_workload():
    return generate(WorkloadSpec(
        name="tiny", seed=5, n_domains=2, banks_per_domain=2,
        regs_per_bank=3, cloud_gates=8, n_config_bits=3, n_data_inputs=2,
        groups=(ModeGroupSpec("g0", 2, input_transition=0.1),
                ModeGroupSpec("g1", 1, kind="scan", input_transition=0.2)),
    ))


class TestStructure:
    def test_netlist_validates(self, small_workload):
        report = validate(small_workload.netlist)
        assert report.ok, report.summary()

    def test_mode_count(self, small_workload):
        assert len(small_workload.modes) == 3
        assert small_workload.spec.total_modes == 3

    def test_group_bookkeeping(self, small_workload):
        assert small_workload.group_of["g0_m0"] == "g0"
        assert small_workload.group_of["g1_m0"] == "g1"
        groups = small_workload.expected_groups
        assert sorted(map(len, groups)) == [1, 2]

    def test_determinism(self):
        spec = WorkloadSpec(name="d", seed=9, groups=(ModeGroupSpec("g", 2),))
        a = generate(spec)
        b = generate(spec)
        assert a.netlist.cell_count == b.netlist.cell_count
        assert [m.name for m in a.modes] == [m.name for m in b.modes]
        from repro.sdc import write_mode

        assert [write_mode(m) for m in a.modes] \
            == [write_mode(m) for m in b.modes]

    def test_seed_changes_structure(self):
        a = generate(WorkloadSpec(name="d", seed=1,
                                  groups=(ModeGroupSpec("g", 1),)))
        b = generate(WorkloadSpec(name="d", seed=2,
                                  groups=(ModeGroupSpec("g", 1),)))
        from repro.netlist import write_verilog

        assert write_verilog(a.netlist) != write_verilog(b.netlist)


class TestModeContent:
    def test_func_modes_have_clocks_per_domain(self, small_workload):
        func = next(m for m in small_workload.modes if m.name == "g0_m0")
        assert len(func.clocks()) == 2  # one per domain

    def test_scan_mode_has_scan_clock_only(self, small_workload):
        scan = next(m for m in small_workload.modes if m.name == "g1_m0")
        assert [c.name for c in scan.clocks()] == ["SCAN"]

    def test_scan_mode_selects_scan(self, small_workload):
        scan = next(m for m in small_workload.modes if m.name == "g1_m0")
        cases = {c.objects.patterns[0]: c.value for c in scan.case_analyses()}
        assert cases.get("scan_mode") == 1

    def test_groups_differ_by_transition(self, small_workload):
        from repro.sdc import SetInputTransition

        by_group = {}
        for mode in small_workload.modes:
            value = mode.of_type(SetInputTransition)[0].value
            by_group.setdefault(small_workload.group_of[mode.name],
                                set()).add(value)
        assert all(len(v) == 1 for v in by_group.values())
        assert by_group["g0"] != by_group["g1"]


class TestSuite:
    def test_paper_suite_mode_counts(self):
        suite = paper_suite()
        assert [suite[k].paper_modes for k in "ABCDEF"] \
            == [95, 3, 12, 3, 5, 3]
        # C follows the paper's reported 75.0% reduction (12 -> 3); its
        # "#merged = 1" cell is internally inconsistent with that row's
        # percentage and the table average — see EXPERIMENTS.md.
        assert [suite[k].paper_merged for k in "ABCDEF"] \
            == [16, 1, 3, 1, 1, 2]
        # Table 5's percentages follow from its counts and average 67.5%.
        reductions = [100.0 * (d.paper_modes - d.paper_merged)
                      / d.paper_modes for d in suite.values()]
        assert [d.paper_reduction_pct for d in suite.values()] \
            == pytest.approx(reductions, abs=0.2)
        assert sum(reductions) / len(reductions) \
            == pytest.approx(67.5, abs=0.05)

    def test_group_structure_matches_expected_merged(self):
        suite = paper_suite()
        for name, design in suite.items():
            assert len(design.spec.groups) == design.paper_merged
            assert design.spec.total_modes == design.paper_modes

    def test_load_design_small_scale(self):
        workload = load_design("B", scale=0.5)
        assert len(workload.modes) == 3
        assert validate(workload.netlist).ok

    def test_figure2_spec(self):
        spec = figure2_modes()
        assert [g.count for g in spec.groups] == [4, 3, 2]
