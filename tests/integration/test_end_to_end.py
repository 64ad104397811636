"""Integration tests: full flow on synthetic workloads (small scale)."""

import pytest

from repro.analysis import compare_conformity
from repro.baselines import naive_merge, run_sta_all_modes
from repro.core import (
    build_mergeability_graph,
    check_mode_equivalence,
    merge_all,
)
from repro.timing import TYPICAL_CORNERS, run_scenarios, scenario_reduction
from repro.workloads import (
    ModeGroupSpec,
    WorkloadSpec,
    figure2_modes,
    generate,
)


@pytest.fixture(scope="module")
def figure2_workload():
    return generate(figure2_modes())


@pytest.fixture(scope="module")
def figure2_run(figure2_workload):
    return merge_all(figure2_workload.netlist, figure2_workload.modes)


class TestFigure2Flow:
    def test_mergeability_graph_matches_ground_truth(self, figure2_workload):
        analysis = build_mergeability_graph(
            figure2_workload.netlist, figure2_workload.modes)
        assert sorted(map(sorted, analysis.groups)) \
            == sorted(map(sorted, figure2_workload.expected_groups))
        # Clique edge count: C(4,2) + C(3,2) + C(2,2) = 6 + 3 + 1.
        assert len(analysis.mergeable_pairs()) == 10

    def test_reduction(self, figure2_run):
        assert figure2_run.individual_count == 9
        assert figure2_run.merged_count == 3
        assert figure2_run.reduction_percent == pytest.approx(66.7, abs=0.1)

    def test_all_groups_validated(self, figure2_run):
        for outcome in figure2_run.outcomes:
            assert outcome.result is not None
            assert outcome.result.ok, outcome.result.outcome.residuals

    def test_merged_equivalence_independent_check(self, figure2_workload,
                                                  figure2_run):
        by_name = {m.name: m for m in figure2_workload.modes}
        for outcome in figure2_run.outcomes:
            individuals = [by_name[n] for n in outcome.mode_names]
            report = check_mode_equivalence(
                figure2_workload.netlist, individuals,
                outcome.result.merged,
                clock_maps=outcome.result.clock_maps)
            assert report.equivalent, report.summary()

    def test_sta_conformity(self, figure2_workload, figure2_run):
        individual = run_sta_all_modes(figure2_workload.netlist,
                                       figure2_workload.modes)
        merged = run_sta_all_modes(figure2_workload.netlist,
                                   figure2_run.merged_modes())
        report = compare_conformity(individual, merged)
        assert report.percent >= 99.0, report.summary()
        assert not report.unmatched

    def test_merged_sta_is_faster(self, figure2_workload, figure2_run):
        # Wall-clock on a tiny design is noisy: take the best of three
        # runs for each flow before comparing.
        individual = min(
            run_sta_all_modes(figure2_workload.netlist,
                              figure2_workload.modes).total_runtime_seconds
            for _ in range(3))
        merged = min(
            run_sta_all_modes(figure2_workload.netlist,
                              figure2_run.merged_modes())
            .total_runtime_seconds
            for _ in range(3))
        # 9 runs vs 3 runs: merged must be well under the individual total.
        assert merged < individual

    def test_scenario_matrix_shrinks_and_keeps_worst_slacks(
            self, figure2_workload, figure2_run):
        """The introduction's arithmetic, scenarios = #modes x #corners:
        27 scenarios become 9, and the sign-off answer across the matrix
        is kept."""
        before = run_scenarios(figure2_workload.netlist,
                               figure2_workload.modes)
        after = run_scenarios(figure2_workload.netlist,
                              figure2_run.merged_modes())
        n_before, n_after, pct = scenario_reduction(
            figure2_run.individual_count, figure2_run.merged_count,
            len(TYPICAL_CORNERS))
        assert (before.scenario_count, after.scenario_count) \
            == (n_before, n_after) == (27, 9)
        assert pct > 50.0
        worst_after = after.worst_endpoint_slacks()
        for endpoint, slack in before.worst_endpoint_slacks().items():
            # 1% of the slowest clock period (40).
            assert abs(worst_after[endpoint] - slack) <= 0.4, endpoint


class TestNaiveBaselineComparison:
    def test_naive_merge_not_equivalent_on_workload(self, figure2_workload):
        """Union-merging modes with a mode-specific false path fails the
        equivalence audit; the paper's flow on the same modes passes."""
        from repro.core import merge_modes
        from repro.sdc.parser import parse_mode as _parse
        from repro.timing import BoundMode, RelationshipExtractor

        group = [m for m in figure2_workload.modes
                 if figure2_workload.group_of[m.name] == "g0"][:2]
        # Find an endpoint the second mode actually times, then falsify it
        # in a copy of the first mode only.
        bound = BoundMode(figure2_workload.netlist, group[1])
        rows = RelationshipExtractor(bound).endpoint_relationships()
        timed = [ep for (ep, _lc, _cc), states in rows.items()
                 if any(not s.is_false for s in states)]
        ep_name = bound.graph.name(sorted(timed)[0])
        special = group[0].copy(group[0].name)
        special.extend(_parse(
            f"set_false_path -to [get_pins {ep_name}]").constraints)
        modes = [special, group[1]]

        naive = naive_merge(figure2_workload.netlist, modes)
        report = check_mode_equivalence(
            figure2_workload.netlist, modes, naive.merged,
            clock_maps=naive.clock_maps)
        assert not report.equivalent

        proper = merge_modes(figure2_workload.netlist, modes)
        assert proper.ok


class TestSingleGroupWorkload:
    def test_conflicting_cases_within_group(self):
        """A group whose modes disagree on every config bit still merges
        exactly (the refinement machinery carries the weight)."""
        workload = generate(WorkloadSpec(
            name="stress", seed=17, n_domains=2, banks_per_domain=2,
            regs_per_bank=4, cloud_gates=14, n_config_bits=4,
            groups=(ModeGroupSpec("g", 4),),
        ))
        run = merge_all(workload.netlist, workload.modes)
        assert run.merged_count == 1
        assert run.outcomes[0].result.ok
        individual = run_sta_all_modes(workload.netlist, workload.modes)
        merged = run_sta_all_modes(workload.netlist, run.merged_modes())
        report = compare_conformity(individual, merged)
        assert report.percent >= 99.0, report.summary()
