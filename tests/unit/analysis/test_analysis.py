"""Unit tests for the conformity metric."""

import pytest

from repro.analysis import compare_conformity
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
