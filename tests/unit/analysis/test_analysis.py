"""Unit tests for conformity metrics and suite tables."""

import pytest

from repro.analysis import compare_conformity, run_suite
from repro.baselines.no_merge import MultiModeStaResult
from repro.timing.sta import EndpointSlack, StaResult
from repro.timing.states import VALID


def _result(mode, slacks, period=10.0):
    result = StaResult(mode)
    for endpoint, slack in slacks.items():
        result.endpoint_slacks[endpoint] = EndpointSlack(
            endpoint=endpoint, slack=slack, launch_clock="c",
            capture_clock="c", capture_period=period, arrival=0.0,
            required=slack, state=VALID)
    return result


def _multi(*results):
    multi = MultiModeStaResult()
    multi.results = list(results)
    return multi


class TestCompareConformity:
    def test_all_conforming(self):
        ind = _multi(_result("a", {"e1": 5.0, "e2": 3.0}))
        merged = _multi(_result("m", {"e1": 5.05, "e2": 3.0}))
        report = compare_conformity(ind, merged)
        assert report.total == 2
        assert report.percent == 100.0
        assert not report.unmatched

    def test_deviation_beyond_one_percent(self):
        ind = _multi(_result("a", {"e1": 5.0}, period=10.0))
        merged = _multi(_result("m", {"e1": 5.2}, period=10.0))
        report = compare_conformity(ind, merged)
        assert report.conforming == 0
        assert report.percent == 0.0
        assert report.rows[0].deviation == pytest.approx(0.2)

    def test_threshold_scales_with_period(self):
        ind = _multi(_result("a", {"e1": 5.0}, period=100.0))
        merged = _multi(_result("m", {"e1": 5.9}, period=100.0))
        assert compare_conformity(ind, merged).percent == 100.0

    def test_unmatched_endpoints(self):
        ind = _multi(_result("a", {"e1": 1.0, "only_ind": 2.0}))
        merged = _multi(_result("m", {"e1": 1.0, "only_merged": 2.0}))
        report = compare_conformity(ind, merged)
        assert set(report.unmatched) == {"only_ind", "only_merged"}

    def test_worst_deviations_ordering(self):
        ind = _multi(_result("a", {"e1": 1.0, "e2": 1.0}))
        merged = _multi(_result("m", {"e1": 1.5, "e2": 1.01}))
        worst = compare_conformity(ind, merged).worst_deviations(1)
        assert worst[0].endpoint == "e1"

    def test_empty_is_vacuously_conformant(self):
        report = compare_conformity(_multi(), _multi())
        assert report.percent == 100.0
        assert "conformity" in report.summary()

    def test_worst_over_modes_used(self):
        ind = _multi(_result("a", {"e1": 5.0}), _result("b", {"e1": 2.0}))
        merged = _multi(_result("m", {"e1": 2.0}))
        report = compare_conformity(ind, merged)
        assert report.rows[0].individual_slack == 2.0
        assert report.percent == 100.0


class TestSuiteTables:
    @pytest.fixture(scope="class")
    def small_suite(self):
        # Tiny scale so the whole flow runs in seconds.
        return run_suite(designs=["B"], scale=0.5, run_sta=True)

    def test_table5_shape(self, small_suite):
        text = small_suite.format_table5()
        assert "Table 5" in text
        assert any(line.startswith("B ") for line in text.splitlines())
        assert "Average" in text

    def test_table5_reduction_matches_paper_structure(self, small_suite):
        row = small_suite.table5[0]
        assert row.individual_modes == 3
        assert row.merged_modes == 1
        assert row.reduction_pct == pytest.approx(66.7, abs=0.1)

    def test_table6_recorded(self, small_suite):
        assert small_suite.table6
        row = small_suite.table6[0]
        assert row.individual_sta_s > row.merged_sta_s
        assert row.conformity_pct >= 99.0
        assert "Table 6" in small_suite.format_table6()

    def test_runs_validated(self, small_suite):
        run = small_suite.runs["B"]
        assert all(o.result is not None and o.result.ok
                   for o in run.outcomes)
