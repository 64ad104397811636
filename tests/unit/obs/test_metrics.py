"""Unit tests for the metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs.context import current, observing
from repro.obs.metrics import (
    COUNT_BUCKETS,
    METRIC_CONTRACT,
    MetricsRegistry,
    NullMetrics,
)


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("merge.runs")
        registry.inc("merge.runs", 2)
        assert registry.counter("merge.runs") == 3

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("merge.reduction_percent", 10.0)
        registry.set_gauge("merge.reduction_percent", 75.0)
        assert registry.gauge("merge.reduction_percent") == 75.0

    def test_histogram_buckets_are_cumulative_dict(self):
        registry = MetricsRegistry()
        for value in (0.5, 3, 7, 20_000):
            registry.observe("merge.group_constraints", value,
                             buckets=COUNT_BUCKETS)
        hist = registry.histogram("merge.group_constraints")
        assert hist["count"] == 4
        assert len(hist["counts"]) == len(hist["buckets"]) + 1
        assert sum(hist["counts"]) == hist["count"]
        assert hist["counts"][-1] == 1  # the +Inf overflow observation

    def test_unknown_query_defaults(self):
        registry = MetricsRegistry()
        assert registry.counter("merge.runs") == 0
        assert registry.gauge("run.wall_seconds") is None
        assert registry.histogram("sta.run_seconds") is None

    def test_strict_names_rejects_undeclared(self):
        registry = MetricsRegistry(strict_names=True)
        with pytest.raises(KeyError, match="not in METRIC_CONTRACT"):
            registry.inc("no.such.metric")

    def test_strict_names_rejects_kind_mismatch(self):
        registry = MetricsRegistry(strict_names=True)
        with pytest.raises(KeyError, match="declared as gauge"):
            registry.inc("merge.reduction_percent")

    def test_lenient_records_any_name(self):
        registry = MetricsRegistry()
        registry.inc("bench.custom.counter")
        assert registry.counter("bench.custom.counter") == 1


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("merge.runs", 2)
        registry.set_gauge("merge.reduction_percent", 50.0)
        registry.observe("sta.run_seconds", 0.002)
        return registry

    def test_json_layout(self):
        payload = json.loads(self._registry().to_json())
        assert payload["kind"] == "repro-metrics"
        assert payload["schema_version"] == 1
        assert payload["counters"]["merge.runs"] == 2
        assert payload["gauges"]["merge.reduction_percent"] == 50.0
        assert payload["histograms"]["sta.run_seconds"]["count"] == 1


class TestContract:
    def test_every_contract_row_is_well_formed(self):
        for name, (kind, help_text) in METRIC_CONTRACT.items():
            assert kind in ("counter", "gauge", "histogram"), name
            assert help_text, name
            assert name == name.strip()

    def test_pipeline_emits_only_contract_names(self, pipeline_netlist):
        """Every instrumentation site in the pipeline uses declared names.

        A strict registry raises on any undeclared emission, so a full
        merge run under it proves the stable-name contract holds.
        """
        from repro.core import merge_all
        from repro.sdc import parse_mode

        clk = "create_clock -name c -period 10 [get_ports clk]\n"
        modes = [parse_mode(clk, "A"), parse_mode(clk, "B")]
        registry = MetricsRegistry(strict_names=True)
        with observing(metrics=registry):
            run = merge_all(pipeline_netlist, modes)
        assert run.merged_count == 1
        assert registry.counter("merge.runs") >= 1
        assert registry.counter("merge.modes_in") == 2


class TestAmbient:
    def test_default_is_null_noop(self):
        metrics = current().metrics
        assert isinstance(metrics, NullMetrics)
        assert not metrics.enabled
        metrics.inc("merge.runs")
        assert metrics.counter("merge.runs") == 0

    def test_collecting_scope(self):
        registry = MetricsRegistry()
        with observing(metrics=registry):
            current().metrics.inc("merge.runs")
        assert registry.counter("merge.runs") == 1
        assert not current().metrics.enabled
