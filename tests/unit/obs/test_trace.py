"""Unit tests for the hierarchical tracer (repro.obs.trace)."""

import json

import pytest

from repro.obs.context import current, observing
from repro.obs.trace import NullTracer, Tracer


class TestSpanTree:
    def test_nesting_and_durations(self):
        tracer = Tracer()
        with tracer.span("outer", modes=["A", "B"]):
            with tracer.span("inner"):
                pass
        assert [s.name for s, _ in tracer.walk()] == ["outer", "inner"]
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.parent is outer
        assert outer.duration >= inner.duration >= 0.0
        assert outer.attrs == {"modes": ["A", "B"]}

    def test_annotate_targets_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(count=3)
        assert tracer.find("inner")[0].attrs == {"count": 3}
        assert tracer.find("outer")[0].attrs == {}

    def test_span_handle_yields_span_for_direct_annotate(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.annotate(k="v")
        assert tracer.find("s")[0].attrs == {"k": "v"}

    def test_exception_marks_span_and_closes_it(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        span = tracer.find("failing")[0]
        assert span.attrs["error"] == "RuntimeError"
        assert span.end is not None
        assert tracer.current is None

    def test_siblings_become_forest_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [r.name for r in tracer.roots] == ["a", "b"]

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("s"):
            assert tracer.current.name == "s"
        assert tracer.current is None


class TestExport:
    def _tracer(self):
        tracer = Tracer()
        with tracer.span("merge", modes=("A", "B")):
            with tracer.span("step:clock_union"):
                pass
        return tracer

    def test_jsonl_header_and_rows(self):
        lines = self._tracer().to_jsonl().strip().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "repro-trace"
        assert header["schema_version"] == 1
        rows = [json.loads(line) for line in lines[1:]]
        assert [r["name"] for r in rows] == ["merge", "step:clock_union"]
        assert rows[0]["depth"] == 0 and rows[1]["depth"] == 1
        assert rows[1]["parent"] == "merge"
        assert rows[0]["attrs"]["modes"] == ["A", "B"]  # tuple -> list

    def test_chrome_events(self):
        payload = json.loads(self._tracer().to_chrome())
        events = payload["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)

    def test_export_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            self._tracer().export("xml")

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._tracer().write(path)
        assert json.loads(path.read_text().splitlines()[0])["kind"] \
            == "repro-trace"

    def test_format_tree(self):
        text = self._tracer().format_tree()
        assert "merge:" in text
        assert "  step:clock_union:" in text


class TestAmbient:
    def test_default_is_null(self):
        tracer = current().tracer
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled
        # The null span handle is shared and inert.
        with tracer.span("x") as span:
            span.annotate(ignored=True)
        assert tracer.current is None

    def test_tracing_scope_installs_and_restores(self):
        tracer = Tracer()
        with observing(tracer=tracer) as active:
            assert active.tracer is tracer
            assert current().tracer is tracer
        assert not current().tracer.enabled

    def test_nested_scope_restores_previous_tracer(self):
        tracer = Tracer()
        with observing(tracer=tracer):
            with observing(tracer=None):
                assert not current().tracer.enabled
            assert current().tracer is tracer
        assert not current().tracer.enabled


class TestGraft:
    def _worker_payload(self):
        worker = Tracer()
        with worker.span("merge", modes=("a", "b")):
            worker.event("diagnostic:SDC002", code="SDC002")
            with worker.span("step:exceptions"):
                pass
        return worker, json.loads(json.dumps(worker.to_payload()))

    def test_roots_attach_under_the_current_span(self):
        _worker, payload = self._worker_payload()
        parent = Tracer()
        with parent.span("merge_all"):
            parent.graft(payload)
        assert [(s.name, d) for s, d in parent.walk()] == [
            ("merge_all", 0), ("merge", 1), ("step:exceptions", 2)]
        merge = parent.find("merge")[0]
        assert merge.parent is parent.roots[0]
        assert merge.attrs == {"modes": ["a", "b"]}
        assert merge.events[0]["name"] == "diagnostic:SDC002"

    def test_times_are_rebased_on_the_shared_clock(self):
        worker, payload = self._worker_payload()
        parent = Tracer()
        parent.graft(payload)
        mine, theirs = parent.roots[0], worker.roots[0]
        assert mine.duration == pytest.approx(theirs.duration)
        assert parent._t0 + mine.start \
            == pytest.approx(worker._t0 + theirs.start)
        assert parent._t0 + mine.events[0]["ts"] \
            == pytest.approx(worker._t0 + theirs.events[0]["ts"])

    def test_graft_notifies_no_listener(self):
        seen = []

        class Listener:
            def span_opened(self, span):
                seen.append(span.name)

            span_closed = span_opened

        _worker, payload = self._worker_payload()
        parent = Tracer()
        parent.add_listener(Listener())
        parent.graft(payload)
        assert seen == []
        assert parent.span_names() == ["merge", "step:exceptions"]


class TestSpanEvents:
    def _traced_with_events(self):
        tracer = Tracer()
        with tracer.span("merge"):
            tracer.event("diagnostic:SDC002", code="SDC002",
                         severity="warning")
            with tracer.span("step:exceptions"):
                tracer.event("checkpoint", group="A+B")
        return tracer

    def test_event_attaches_to_innermost_open_span(self):
        tracer = self._traced_with_events()
        outer = tracer.find("merge")[0]
        inner = tracer.find("step:exceptions")[0]
        assert [e["name"] for e in outer.events] == ["diagnostic:SDC002"]
        assert [e["name"] for e in inner.events] == ["checkpoint"]
        assert outer.events[0]["attrs"]["code"] == "SDC002"

    def test_event_outside_any_span_is_dropped(self):
        tracer = Tracer()
        tracer.event("orphan")
        assert tracer.roots == []

    def test_null_tracer_event_is_noop(self):
        NullTracer().event("ignored", k="v")  # does not raise

    def test_jsonl_export_carries_events(self):
        lines = self._traced_with_events().to_jsonl().strip().splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        merge_row = next(r for r in rows if r["name"] == "merge")
        assert merge_row["events"][0]["name"] == "diagnostic:SDC002"
        assert "ts_s" in merge_row["events"][0]

    def test_chrome_export_emits_instant_events(self):
        payload = json.loads(self._traced_with_events().to_chrome())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} \
            == {"diagnostic:SDC002", "checkpoint"}
        for event in instants:
            assert "dur" not in event
            assert event["s"] == "t"
            assert event["args"]


class TestDiagnosticsBridge:
    def test_recovery_parse_produces_span_events(self):
        """Satellite: SDC diagnostics show inline in the trace."""
        from repro.diagnostics import DegradationPolicy, DiagnosticCollector
        from repro.sdc import parse_sdc

        tracer = Tracer()
        collector = DiagnosticCollector(DegradationPolicy.PERMISSIVE)
        with observing(tracer=tracer):
            with tracer.span("parse:broken.sdc"):
                result = parse_sdc(
                    "create_clock -name CK -period 10 [get_ports clk]\n"
                    "this_is_not_sdc !!!\n"
                    "set_wire_load_model -name foo\n",
                    "broken", policy=DegradationPolicy.PERMISSIVE,
                    collector=collector)
        assert not result.clean
        span = tracer.find("parse:broken.sdc")[0]
        codes = {e["attrs"]["code"] for e in span.events
                 if e["name"].startswith("diagnostic:")}
        assert codes, "recovery diagnostics must bridge into span events"
        assert all(code.startswith("SDC") for code in codes)

    def test_no_events_without_ambient_tracer(self):
        from repro.diagnostics import DegradationPolicy, DiagnosticCollector
        from repro.sdc import parse_sdc

        collector = DiagnosticCollector(DegradationPolicy.PERMISSIVE)
        result = parse_sdc("nonsense ???\n", "b",
                           policy=DegradationPolicy.PERMISSIVE,
                           collector=collector)
        assert not result.clean  # diagnostics recorded, nothing bridged
