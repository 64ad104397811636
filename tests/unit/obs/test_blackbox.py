"""Unit tests for the always-on flight recorder (repro.obs.blackbox)."""

import json

import pytest

from repro.obs.blackbox import (
    BLACKBOX_KIND,
    BLACKBOX_SCHEMA_VERSION,
    BlackboxRecorder,
    FlightLedger,
    NullBlackbox,
    causal_chain,
    format_doctor_report,
    load_blackbox,
)
from repro.obs.context import current, observing
from repro.obs.metrics import MetricsRegistry
from repro.obs.validate import validate_blackbox


class TestRing:
    def test_record_stamps_kind_seq_and_time(self):
        recorder = BlackboxRecorder()
        recorder.record("diagnostic", code="MRG002")
        recorder.record("chaos", clause="crash@*@1")
        events = list(recorder._ring)
        assert [e["kind"] for e in events] == ["diagnostic", "chaos"]
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["t"] >= 0 for e in events)
        assert events[0]["code"] == "MRG002"

    def test_ring_evicts_oldest_and_counts_dropped(self):
        recorder = BlackboxRecorder(capacity=4)
        for i in range(10):
            recorder.record("event", i=i)
        assert len(recorder._ring) == 4
        assert [e["i"] for e in recorder._ring] == [6, 7, 8, 9]
        assert recorder.dropped == 6
        assert recorder._seq == 10

    def test_note_state_is_last_write_wins(self):
        recorder = BlackboxRecorder()
        recorder.note_state("checkpoint", {"groups": 1})
        recorder.note_state("checkpoint", {"groups": 5})
        assert recorder.export()["state"]["checkpoint"] == {"groups": 5}


class TestFlightLedger:
    def test_ledger_stays_disabled(self):
        recorder = BlackboxRecorder()
        ledger = recorder.flight_ledger()
        assert isinstance(ledger, FlightLedger)
        assert ledger.enabled is False
        # Guarded leaf sites never fire; decide must be a no-op.
        assert ledger.decide("mergeability.pair", "a,b") is None

    def test_frames_feed_the_ring_and_phase_timings(self):
        recorder = BlackboxRecorder()
        ledger = recorder.flight_ledger()
        with ledger.frame("run", "run:merge"):
            with ledger.frame("merge.group", "group:a+b"):
                pass
        kinds = [(e["kind"], e.get("frame")) for e in recorder._ring]
        assert kinds == [
            ("frame.open", "run"),
            ("frame.open", "merge.group"),
            ("frame.close", "merge.group"),
            ("frame.close", "run"),
        ]
        assert recorder._frames == []
        seconds = recorder.export()["frame_seconds"]
        assert set(seconds) == {"run", "merge.group"}
        assert all(v >= 0 for v in seconds.values())

    def test_open_frame_is_the_failing_phase(self):
        recorder = BlackboxRecorder()
        ledger = recorder.flight_ledger()
        frame = ledger.frame("merge.step", "step:clock_refinement")
        frame.__enter__()
        assert recorder.failing_phase() == \
            "merge.step step:clock_refinement"

    def test_frame_error_is_recorded_on_close(self):
        recorder = BlackboxRecorder()
        ledger = recorder.flight_ledger()
        with pytest.raises(RuntimeError):
            with ledger.frame("merge.group", "group:a+b"):
                raise RuntimeError("boom")
        close = list(recorder._ring)[-1]
        assert close["kind"] == "frame.close"
        assert close["error"] == "RuntimeError"


class TestWorkerFolding:
    def test_merge_payload_tags_events_with_worker_pid(self):
        worker = BlackboxRecorder()
        with worker.flight_ledger().frame("merge.group", "group:a+b"):
            worker.record("exec.fault", detail="killed")
        parent = BlackboxRecorder()
        parent.merge_payload(worker.to_payload())
        faults = [e for e in parent._ring if e["kind"] == "exec.fault"]
        assert len(faults) == 1
        assert faults[0]["worker"] == worker.to_payload()["pid"]
        # Frame timings accumulate across the fold.
        assert "merge.group" in parent.export()["frame_seconds"]

    def test_merge_payload_accumulates_dropped(self):
        worker = BlackboxRecorder(capacity=2)
        for i in range(5):
            worker.record("event", i=i)
        parent = BlackboxRecorder()
        parent.merge_payload(worker.to_payload())
        assert parent.dropped == 3

    def test_merge_payload_tolerates_none(self):
        parent = BlackboxRecorder()
        parent.merge_payload(None)
        assert parent._seq == 0


class TestExportAndFlush:
    def test_export_shape(self):
        recorder = BlackboxRecorder()
        recorder.record("diagnostic", code="SGN006")
        payload = recorder.export(reason={"kind": "budget",
                                          "detail": "over budget"})
        assert payload["schema_version"] == BLACKBOX_SCHEMA_VERSION
        assert payload["kind"] == BLACKBOX_KIND
        assert payload["reason"] == {"kind": "budget",
                                     "detail": "over budget"}
        assert payload["environment"]["pid"] > 0
        assert payload["dropped"] == 0
        assert validate_blackbox(json.dumps(payload)) == []

    def test_export_rounds_event_times(self):
        recorder = BlackboxRecorder()
        recorder.record("event")
        t = recorder.export()["events"][0]["t"]
        assert t == round(t, 6)

    def test_failing_phase_falls_back_to_errored_close(self):
        # Exceptions unwind every frame before the flush; the innermost
        # errored close (recorded first) must still name the phase.
        recorder = BlackboxRecorder()
        ledger = recorder.flight_ledger()
        with pytest.raises(ValueError):
            with ledger.frame("run", "run:merge"):
                with ledger.frame("merge.step", "step:graph"):
                    raise ValueError("bad graph")
        assert recorder.export()["failing_phase"] == \
            "merge.step step:graph"

    def test_export_embeds_enabled_metrics(self):
        registry = MetricsRegistry()
        registry.inc("merge.runs")
        payload = BlackboxRecorder().export(metrics=registry)
        assert payload["metrics"]["counters"]["merge.runs"] == 1

    def test_flush_round_trips_through_load(self, tmp_path):
        recorder = BlackboxRecorder()
        recorder.record("signal", name="SIGTERM")
        target = tmp_path / "deep" / "blackbox.json"
        assert recorder.flush(target, reason={"kind": "signal",
                                              "detail": "SIGTERM"})
        payload = load_blackbox(target)
        assert payload["reason"]["kind"] == "signal"
        assert not list(tmp_path.glob("**/*.tmp.*"))

    def test_flush_failure_reports_and_returns_false(self, tmp_path,
                                                     capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        ok = BlackboxRecorder().flush(blocker / "blackbox.json")
        assert ok is False
        assert "cannot write blackbox" in capsys.readouterr().err


class TestDoctorRendering:
    def _payload(self):
        recorder = BlackboxRecorder()
        ledger = recorder.flight_ledger()
        frame = ledger.frame("run", "run:merge")
        frame.__enter__()
        inner = ledger.frame("merge.group", "group:a+b")
        inner.__enter__()
        recorder.record("diagnostic", code="EXE006",
                        message="worker died")
        return recorder.export(reason={"kind": "worker-fault",
                                       "detail": "EXE006"})

    def test_causal_chain_runs_outermost_to_reason(self):
        chain = causal_chain(self._payload())
        assert chain[0] == "[run] run:merge"
        assert chain[1] == "[merge.group] group:a+b"
        assert chain[-1] == "[worker-fault] EXE006"

    def test_report_names_phase_chain_and_faults(self):
        report = format_doctor_report(self._payload())
        assert "failing phase: merge.group group:a+b" in report
        assert "causal chain to failure:" in report
        assert "-> [run] run:merge" in report
        assert "[diagnostic] code=EXE006" in report

    def test_report_mentions_dropped_events(self):
        recorder = BlackboxRecorder(capacity=2)
        for _ in range(5):
            recorder.record("event")
        report = format_doctor_report(recorder.export())
        assert "3 older event(s) dropped" in report


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_blackbox(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_blackbox(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "repro-trace",
                                    "schema_version": 1, "events": []}))
        with pytest.raises(ValueError, match="kind"):
            load_blackbox(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"kind": BLACKBOX_KIND,
                                    "schema_version": 99, "events": []}))
        with pytest.raises(ValueError, match="schema_version"):
            load_blackbox(path)


class TestAmbient:
    def test_default_is_null(self):
        box = current().blackbox
        assert isinstance(box, NullBlackbox)
        assert box.enabled is False

    def test_set_returns_previous(self):
        recorder = BlackboxRecorder()
        previous = current().blackbox
        with observing(blackbox=recorder):
            with observing(blackbox=BlackboxRecorder()):
                assert current().blackbox is not recorder
            assert current().blackbox is recorder
        assert current().blackbox is previous

    def test_recording_scope_restores(self):
        recorder = BlackboxRecorder()
        with observing(blackbox=recorder) as active:
            assert active.blackbox is recorder
            assert current().blackbox is recorder
        assert current().blackbox.enabled is False
