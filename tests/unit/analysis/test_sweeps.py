"""Unit tests for the tolerance / mode-count sweeps."""

import pytest

from repro.analysis import sweep_mode_count, sweep_tolerance
from repro.workloads import ModeGroupSpec, WorkloadSpec, generate


@pytest.fixture(scope="module")
def spread_workload():
    """Two groups whose transitions differ by 30%: mergeable only at a
    generous tolerance."""
    return generate(WorkloadSpec(
        name="spread", seed=23, n_domains=2, banks_per_domain=2,
        regs_per_bank=3, cloud_gates=8, n_config_bits=3, n_data_inputs=2,
        groups=(ModeGroupSpec("lo", 2, input_transition=0.10),
                ModeGroupSpec("hi", 2, input_transition=0.13)),
    ))


class TestToleranceSweep:
    def test_monotone_in_tolerance(self, spread_workload):
        sweep = sweep_tolerance(spread_workload,
                                tolerances=(0.0, 0.1, 0.3, 1.0))
        pairs = [p.mergeable_pairs for p in sweep.points]
        assert pairs == sorted(pairs)
        groups = [p.merge_groups for p in sweep.points]
        assert groups == sorted(groups, reverse=True)

    def test_cross_group_merge_opens_at_high_tolerance(self, spread_workload):
        sweep = sweep_tolerance(spread_workload, tolerances=(0.05, 1.0))
        strict, loose = sweep.points
        # 0.10 vs 0.13 is a 23% spread: separate below, joined above.
        assert strict.merge_groups == 2
        assert loose.merge_groups == 1
        assert loose.mergeable_pairs > strict.mergeable_pairs

    def test_format(self, spread_workload):
        text = sweep_tolerance(spread_workload, tolerances=(0.1,)).format()
        assert "Tolerance" in text and "0.10" in text


class TestModeCountSweep:
    def test_scaling_points(self):
        sweep = sweep_mode_count(counts=(2, 4), seed=5)
        assert [p.mode_count for p in sweep.points] == [2, 4]
        for point in sweep.points:
            assert point.analysis_seconds >= 0
            assert point.reduction_percent > 0

    def test_every_default_point_halves_the_modes(self):
        sweep = sweep_mode_count()  # counts (2, 4, 8, 16), seed 77
        assert [p.mode_count for p in sweep.points] == [2, 4, 8, 16]
        assert all(p.reduction_percent >= 50.0 for p in sweep.points)

    def test_reduction_consistent_with_grouping(self):
        sweep = sweep_mode_count(counts=(8,), seed=5, groups_of=4)
        # 8 modes in 2 groups of 4 -> 75% reduction.
        assert sweep.points[0].reduction_percent == pytest.approx(75.0)

    def test_format(self):
        text = sweep_mode_count(counts=(2,), seed=5).format()
        assert "#Modes" in text
