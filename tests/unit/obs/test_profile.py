"""Unit tests for span-attributed profiling (repro.obs.profile)."""

import json

from repro.obs.context import ObsContext, current, observing
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    NullProfiler,
    Profiler,
    phase_for_span,
    span_summary,
)
from repro.obs.trace import Tracer
from repro.obs.validate import validate_profile


def _fixed_tree():
    """A tracer whose span tree has hand-set timestamps:

    root [0, 10]
      a [1, 4]
        c [2, 3]
      b [4, 9]
    """
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("c"):
                pass
        with tracer.span("b"):
            pass
    root = tracer.roots[0]
    a, b = root.children
    (c,) = a.children
    root.start, root.end = 0.0, 10.0
    a.start, a.end = 1.0, 4.0
    c.start, c.end = 2.0, 3.0
    b.start, b.end = 4.0, 9.0
    return tracer


class TestSpanSelfTime:
    def test_exclusive_durations_sum_to_root_cumulative(self):
        tracer = _fixed_tree()
        rows = span_summary(tracer)
        # self = duration - direct children's durations
        assert rows["root"] == [1, 10.0, 2.0]   # 10 - (3 + 5)
        assert rows["a"] == [1, 3.0, 2.0]       # 3 - 1
        assert rows["b"] == [1, 5.0, 5.0]
        assert rows["c"] == [1, 1.0, 1.0]
        total_self = sum(row[2] for row in rows.values())
        assert total_self == tracer.roots[0].duration  # no double counting

    def test_same_name_spans_aggregate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("repeat"):
                pass
        rows = span_summary(tracer)
        assert rows["repeat"][0] == 3

    def test_self_time_clamps_at_zero(self):
        # A child recorded longer than its parent (clock skew) must not
        # push the parent's self time negative.
        tracer = Tracer()
        with tracer.span("p"):
            with tracer.span("q"):
                pass
        p = tracer.roots[0]
        (q,) = p.children
        p.start, p.end = 0.0, 1.0
        q.start, q.end = 0.0, 2.0
        assert span_summary(tracer)["p"][2] == 0.0

    def test_null_and_disabled_tracers_yield_nothing(self):
        assert span_summary(None) == {}


class TestPhaseForSpan:
    def test_exact_and_prefixed_names(self):
        assert phase_for_span("parse") == "parse"
        assert phase_for_span("three_pass:pass2") == "three_pass"
        assert phase_for_span("mergeability:group") == "mergeability"

    def test_non_phase_spans(self):
        assert phase_for_span("exec:task") is None
        assert phase_for_span("run") is None
        assert phase_for_span("parsex") is None


def _busy(n=2000):
    return sum(i * i for i in range(n))


class TestProfilerAttribution:
    def test_phase_buckets_follow_span_boundaries(self):
        tracer = Tracer()
        profiler = Profiler()
        tracer.add_listener(profiler)
        profiler.start()
        try:
            with tracer.span("parse"):
                _busy()
            with tracer.span("three_pass:pass1"):
                _busy()
        finally:
            profiler.stop()
        assert "parse" in profiler.phase_functions
        assert "three_pass" in profiler.phase_functions
        export = profiler.export(tracer=tracer)
        assert set(export["phases"]) >= {"parse", "three_pass"}
        for entry in export["phases"].values():
            assert entry["self_seconds"] >= 0.0
            for row in entry["top_functions"]:
                assert row["calls"] >= 0

    def test_export_validates_and_carries_counters(self):
        tracer = Tracer()
        profiler = Profiler()
        tracer.add_listener(profiler)
        registry = MetricsRegistry()
        registry.inc("profile.mock_merges", 7)
        profiler.start()
        try:
            with tracer.span("mergeability"):
                _busy()
        finally:
            profiler.stop()
        export = profiler.export(tracer=tracer, metrics=registry)
        assert validate_profile(json.dumps(export)) == []
        assert export["counters"]["profile.mock_merges"] == 7
        assert export["kind"] == "repro-profile"

    def test_stop_is_idempotent_and_accumulates(self):
        profiler = Profiler()
        profiler.start()
        profiler.stop()
        first = profiler.total_seconds
        profiler.stop()
        assert profiler.total_seconds == first
        profiler.start()
        profiler.stop()
        assert profiler.total_seconds >= first


class TestMergePayload:
    PAYLOAD_A = {
        "total_seconds": 0.5,
        "phases": {"merge_all": {"f.py:1:f": [2, 0.1, 0.2]}},
    }
    PAYLOAD_B = {
        "total_seconds": 0.25,
        "phases": {"merge_all": {"f.py:1:f": [1, 0.05, 0.1],
                                 "g.py:9:g": [4, 0.01, 0.01]}},
    }

    def _folded(self, order):
        profiler = Profiler()
        for payload in order:
            profiler.merge_payload(payload)
        return profiler.export()

    def test_merge_is_additive(self):
        export = self._folded([self.PAYLOAD_A, self.PAYLOAD_B])
        assert export["worker_seconds"] == 0.75
        rows = {row["function"]: row
                for row in export["phases"]["merge_all"]["top_functions"]}
        assert rows["f.py:1:f"]["calls"] == 3

    def test_merge_order_does_not_matter(self):
        forward = self._folded([self.PAYLOAD_A, self.PAYLOAD_B])
        reverse = self._folded([self.PAYLOAD_B, self.PAYLOAD_A])
        assert forward == reverse

    def test_worker_other_rows_go_to_the_open_phase(self):
        tracer = Tracer()
        profiler = Profiler()
        tracer.add_listener(profiler)
        profiler.start()
        try:
            with tracer.span("mergeability"):
                profiler.merge_payload({
                    "total_seconds": 0.1,
                    "phases": {"other": {"f.py:1:f": [1, 0.1, 0.1]},
                               "three_pass": {"g.py:9:g": [1, 0.1, 0.1]}}})
        finally:
            profiler.stop()
        phases = profiler.phase_functions
        assert "f.py:1:f" in phases["mergeability"]
        assert "f.py:1:f" not in phases.get("other", {})
        assert "g.py:9:g" in phases["three_pass"]

    def test_to_payload_round_trips_into_parent(self):
        # The profile rows ride in the profiler's payload; the spans ride
        # in the tracer's, and the parent's export reads its own tracer.
        worker = ObsContext.build(tracer=Tracer(), profiler=Profiler())
        worker.profiler.start()
        try:
            with worker.tracer.span("merge_all"):
                _busy()
        finally:
            worker.profiler.stop()
        parent = ObsContext.build(tracer=Tracer(), profiler=Profiler())
        parent.fold(json.loads(json.dumps(worker.payload())))
        export = parent.profiler.export(tracer=parent.tracer)
        assert export["worker_seconds"] == round(
            worker.profiler.total_seconds, 9)
        assert "merge_all" in export["phases"]
        assert any(span["name"] == "merge_all"
                   for span in export["spans"])


class TestAmbient:
    def test_default_is_disabled_null(self):
        profiler = current().profiler
        assert isinstance(profiler, NullProfiler)
        assert not profiler.enabled
        # the null profiler's operations are no-ops
        profiler.start()
        profiler.span_opened(None)
        profiler.stop()

    def test_profiling_scope_installs_and_restores(self):
        profiler = Profiler()
        with observing(profiler=profiler):
            assert current().profiler is profiler
        assert not current().profiler.enabled

    def test_nested_scope_restores_previous_profiler(self):
        profiler = Profiler()
        with observing(profiler=profiler):
            with observing(profiler=None):
                assert not current().profiler.enabled
            assert current().profiler is profiler


class TestTracerListener:
    def test_listener_sees_opens_and_closes(self):
        events = []

        class Recorder:
            def span_opened(self, span):
                events.append(("open", span.name))

            def span_closed(self, span):
                events.append(("close", span.name))

        tracer = Tracer()
        tracer.add_listener(Recorder())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert events == [("open", "outer"), ("open", "inner"),
                          ("close", "inner"), ("close", "outer")]
