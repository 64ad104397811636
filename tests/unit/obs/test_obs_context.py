"""Unit tests for the observability context (repro.obs.context)."""

import json

import pytest

import repro.obs
from repro.obs import blackbox, explain, metrics, profile, trace
from repro.obs.blackbox import BlackboxRecorder, NullBlackbox
from repro.obs.context import ObsContext, current, observing
from repro.obs.explain import DecisionLedger, NullDecisions
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.profile import NullProfiler, Profiler
from repro.obs.trace import NullTracer, Tracer


def _full_context():
    return ObsContext.build(tracer=Tracer(), metrics=MetricsRegistry(),
                            decisions=DecisionLedger(),
                            profiler=Profiler(),
                            blackbox=BlackboxRecorder())


class TestCurrent:
    def test_default_context_is_all_null(self):
        obs = current()
        assert isinstance(obs.tracer, NullTracer)
        assert isinstance(obs.metrics, NullMetrics)
        assert isinstance(obs.decisions, NullDecisions)
        assert isinstance(obs.profiler, NullProfiler)
        assert isinstance(obs.blackbox, NullBlackbox)
        assert not obs.enabled

    def test_package_exports_the_context_api(self):
        assert repro.obs.ObsContext is ObsContext
        assert repro.obs.current is current
        assert repro.obs.observing is observing

    def test_no_layer_module_keeps_its_own_global(self):
        for module in (trace, metrics, explain, profile, blackbox):
            assert not hasattr(module, "_AMBIENT"), module.__name__


class TestObserving:
    def test_installs_and_restores_a_context(self):
        obs = _full_context()
        with observing(obs) as active:
            assert active is obs
            assert current() is obs
        assert not current().enabled

    def test_none_switches_one_layer_off(self):
        obs = _full_context()
        with observing(obs):
            with observing(decisions=None) as muted:
                assert not current().decisions.enabled
                assert muted.tracer is obs.tracer
                assert muted.metrics is obs.metrics
            assert current() is obs

    def test_unchanged_layers_keep_the_context(self):
        obs = _full_context()
        with observing(obs):
            with observing(tracer=obs.tracer) as same:
                assert same is obs
        with observing(decisions=None) as null:
            assert null is current()


class TestBuild:
    def test_listeners_are_wired_once(self):
        obs = _full_context()
        assert obs.tracer._listeners == [obs.profiler]
        assert obs.decisions.tracer is obs.tracer
        # The recorder hears from no other layer.
        obs.decisions.decide("merge.mode", "group:a+b")
        assert list(obs.blackbox._ring) == []

    def test_decisions_are_named_after_the_open_span(self):
        obs = _full_context()
        with obs.tracer.span("merge"):
            decision = obs.decisions.decide("merge.mode", "group:a+b")
        assert decision.span == "merge"
        assert DecisionLedger().decide("merge.mode", "x").span == ""

    def test_frames_reach_the_ring_with_no_ledger(self):
        recorder = BlackboxRecorder()
        obs = ObsContext.build(blackbox=recorder)
        assert not obs.decisions.enabled
        with obs.frame("merge.group", "group:a+b", span="group:a+b"):
            pass
        assert [e["kind"] for e in recorder._ring] == ["frame.open",
                                                       "frame.close"]


class TestFrame:
    def test_no_frame_layer_means_one_shared_no_op_handle(self):
        obs = ObsContext.build(metrics=MetricsRegistry(),
                               profiler=Profiler())
        handle = obs.frame("run", "run:merge", span="run", command="merge")
        assert handle is ObsContext().frame("merge.step", "step:x")
        with handle as frame:
            frame.span.annotate(constraints=1)
            assert frame.decision is None

    def test_one_region_opens_in_every_layer(self):
        obs = _full_context()
        with obs.frame("merge.group", "group:a+b", span="group:a+b",
                       modes=["a", "b"]) as frame:
            assert obs.tracer.current is frame.span
            assert obs.decisions.current is frame.decision
            obs.decisions.decide("merge.demotion", "group:a+b")
        assert frame.span.name == "group:a+b"
        assert frame.span.attrs == {"modes": ["a", "b"]}
        assert frame.decision.kind == "merge.group"
        assert frame.decision.span == "group:a+b"
        assert frame.decision.attrs == {"modes": ["a", "b"]}
        leaf = obs.decisions.by_kind("merge.demotion")[0]
        assert leaf.parent is frame.decision
        # The ring holds the frame once, as frame events: no span event
        # and no decision.
        assert [(e["kind"], e["frame"]) for e in obs.blackbox._ring] == [
            ("frame.open", "merge.group"),
            ("frame.close", "merge.group")]
        assert obs.tracer.current is None and obs.decisions.current is None

    def test_an_error_is_recorded_in_every_layer(self):
        obs = _full_context()
        with pytest.raises(ValueError):
            with obs.frame("merge.step", "step:graph",
                           span="step:graph") as frame:
                raise ValueError("bad graph")
        assert frame.span.attrs["error"] == "ValueError"
        assert frame.decision.attrs["error"] == "ValueError"
        assert list(obs.blackbox._ring)[-1]["error"] == "ValueError"
        assert obs.blackbox.failing_phase() == ""


class TestForWorker:
    def test_null_context_is_its_own_worker_context(self):
        obs = ObsContext()
        assert obs.for_worker() is obs
        assert obs.payload() is None

    def test_fresh_collectors_for_enabled_layers_only(self):
        parent = ObsContext.build(metrics=MetricsRegistry(),
                                  blackbox=BlackboxRecorder())
        worker = parent.for_worker()
        assert worker.metrics is not parent.metrics
        assert worker.metrics.enabled
        assert worker.blackbox is not parent.blackbox
        assert not worker.decisions.enabled
        assert not worker.tracer.enabled and not worker.profiler.enabled


class TestFold:
    def _worker_payload(self, parent):
        worker = parent.for_worker()
        with observing(worker):
            with worker.frame("merge.group", "group:a+b", span="merge"):
                worker.metrics.inc("merge.runs")
                worker.decisions.decide("merge.mode", "group:a+b")
        return json.loads(json.dumps(worker.payload()))

    def test_records_land_under_the_current_span_and_frame(self):
        parent = _full_context()
        payload = self._worker_payload(parent)
        parent.metrics.inc("merge.runs")
        with parent.frame("run", "run:merge", span="merge_all") as frame:
            parent.fold(payload)
        assert parent.metrics.counter("merge.runs") == 2
        assert [child.name for child in frame.span.children] == ["merge"]
        group, mode = parent.decisions.by_kind("merge.group") \
            + parent.decisions.by_kind("merge.mode")
        assert group.parent is frame.decision and mode.parent is group
        assert mode.span == "merge"

    def test_worker_events_reach_the_ring_once(self):
        parent = _full_context()
        payload = self._worker_payload(parent)
        parent.fold(payload)
        folded = [(e["kind"], e["frame"]) for e in parent.blackbox._ring]
        # The worker's frame once, tagged with the worker's pid: neither
        # the worker's leaf decision nor the ledger graft reaches the
        # ring.
        assert folded == [("frame.open", "merge.group"),
                          ("frame.close", "merge.group")]
        assert all("worker" in event for event in parent.blackbox._ring)

    def test_folding_nothing_is_a_no_op(self):
        parent = _full_context()
        parent.fold(None)
        assert parent.tracer.roots == []
