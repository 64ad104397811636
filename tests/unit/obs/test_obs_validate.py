"""Unit tests for the artifact schema validators (repro.obs.validate)."""

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.obs.validate import (
    main,
    validate_decisions,
    validate_html,
    validate_metrics,
    validate_trace,
    validate_trace_chrome,
    validate_trace_jsonl,
)


def _traced():
    tracer = Tracer()
    with tracer.span("merge"):
        with tracer.span("step:clock_union"):
            pass
    return tracer


class TestTraceValidation:
    def test_valid_jsonl(self):
        assert validate_trace_jsonl(_traced().to_jsonl()) == []

    def test_valid_chrome(self):
        assert validate_trace_chrome(_traced().to_chrome()) == []

    def test_dispatch_picks_format(self):
        assert validate_trace(_traced().to_jsonl()) == []
        assert validate_trace(_traced().to_chrome()) == []

    def test_empty_file(self):
        assert validate_trace_jsonl("") == ["trace file is empty"]

    def test_bad_header_kind(self):
        text = json.dumps({"kind": "nope", "schema_version": 1}) + "\n" \
            + json.dumps({"name": "s", "start_s": 0, "dur_s": 0,
                          "depth": 0, "attrs": {}})
        problems = validate_trace_jsonl(text)
        assert any("header kind" in p for p in problems)

    def test_missing_span_fields(self):
        text = json.dumps({"kind": "repro-trace", "schema_version": 1}) \
            + "\n" + json.dumps({"name": "s"})
        problems = validate_trace_jsonl(text)
        assert any("missing 'start_s'" in p for p in problems)

    def test_chrome_wrong_phase(self):
        payload = json.loads(_traced().to_chrome())
        payload["traceEvents"][0]["ph"] = "B"
        problems = validate_trace_chrome(json.dumps(payload))
        assert any("expected 'X'" in p for p in problems)


class TestMetricsValidation:
    def _valid(self):
        registry = MetricsRegistry()
        registry.inc("merge.runs")
        registry.observe("sta.run_seconds", 0.01)
        return registry

    def test_valid_registry_export(self):
        assert validate_metrics(self._valid().to_json()) == []

    def test_undeclared_counter_rejected(self):
        payload = json.loads(self._valid().to_json())
        payload["counters"]["made.up"] = 1
        problems = validate_metrics(json.dumps(payload))
        assert any("not in METRIC_CONTRACT" in p for p in problems)

    def test_kind_mismatch_rejected(self):
        payload = json.loads(self._valid().to_json())
        payload["counters"]["merge.reduction_percent"] = 1
        problems = validate_metrics(json.dumps(payload))
        assert any("declared gauge" in p for p in problems)

    def test_histogram_shape_enforced(self):
        payload = json.loads(self._valid().to_json())
        payload["histograms"]["sta.run_seconds"]["counts"] = [1]
        problems = validate_metrics(json.dumps(payload))
        assert any("+Inf" in p for p in problems)

    def test_not_json(self):
        assert validate_metrics("not-json")[0].startswith("not JSON")


class TestMain:
    def test_ok_exit_zero(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        _traced().write(trace)
        self_reg = MetricsRegistry()
        self_reg.inc("merge.runs")
        self_reg.write(metrics)
        code = main(["--trace", str(trace), "--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out and "ok" in out

    def test_invalid_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["--metrics", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_unreadable_path_is_invalid_not_a_traceback(self, tmp_path,
                                                        capsys):
        # The missing trace is reported and the metrics still checked.
        metrics = tmp_path / "m.json"
        MetricsRegistry().write(metrics)
        missing = tmp_path / "missing.json"
        assert main(["--trace", str(missing),
                     "--metrics", str(metrics)]) == 1
        captured = capsys.readouterr()
        assert f"trace {missing}: INVALID" in captured.err
        assert "unreadable" in captured.err
        assert f"metrics {metrics}: ok" in captured.out


class TestInstantEventValidation:
    def _with_instant(self):
        tracer = Tracer()
        with tracer.span("merge"):
            tracer.event("diagnostic:SDC002", code="SDC002")
        return tracer.to_chrome()

    def test_instant_events_accepted(self):
        assert validate_trace_chrome(self._with_instant()) == []

    def test_instant_event_needs_no_dur(self):
        payload = json.loads(self._with_instant())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert instants and all("dur" not in e for e in instants)

    def test_instant_event_missing_ts_rejected(self):
        payload = json.loads(self._with_instant())
        instant = next(e for e in payload["traceEvents"] if e["ph"] == "i")
        del instant["ts"]
        problems = validate_trace_chrome(json.dumps(payload))
        assert any("missing 'ts'" in p for p in problems)


class TestDecisionsValidation:
    def _valid(self):
        from repro.obs.explain import DecisionLedger

        ledger = DecisionLedger()
        with ledger.frame("run", "run:merge"):
            ledger.decide("mergeability.pair", "pair:A,B",
                          verdict="rejected", evidence=["reason"])
        return ledger.to_json()

    def test_valid_ledger_export(self):
        assert validate_decisions(self._valid()) == []

    def test_wrong_kind_rejected(self):
        payload = json.loads(self._valid())
        payload["kind"] = "nope"
        problems = validate_decisions(json.dumps(payload))
        assert any("expected 'repro-decisions'" in p for p in problems)

    def test_undeclared_decision_kind_rejected(self):
        payload = json.loads(self._valid())
        payload["decisions"][0]["kind"] = "made.up"
        problems = validate_decisions(json.dumps(payload))
        assert any("not in" in p and "DECISION_KINDS" in p
                   for p in problems)

    def test_forward_parent_reference_rejected(self):
        payload = json.loads(self._valid())
        payload["decisions"][0]["parent"] = 99
        problems = validate_decisions(json.dumps(payload))
        assert any("does not precede" in p for p in problems)

    def test_missing_field_rejected(self):
        payload = json.loads(self._valid())
        del payload["decisions"][1]["evidence"]
        problems = validate_decisions(json.dumps(payload))
        assert any("missing 'evidence'" in p for p in problems)

    def test_not_json(self):
        assert validate_decisions("not-json")[0].startswith("not JSON")


class TestHtmlValidation:
    def _valid(self):
        from repro.obs.report_html import render_run_report

        return render_run_report(title="t")

    def test_valid_report(self):
        assert validate_html(self._valid()) == []

    def test_missing_marker_rejected(self):
        text = self._valid().replace("repro-run-report schema", "x schema")
        problems = validate_html(text)
        assert any("marker" in p for p in problems)

    def test_network_fetch_rejected(self):
        text = self._valid().replace(
            "<body>", '<body><script src="https://evil.example/x.js">'
            "</script>")
        problems = validate_html(text)
        assert any("self-contained" in p for p in problems)

    def test_missing_payload_rejected(self):
        text = self._valid().replace('<script type="application/json"',
                                     '<script type="text/plain"')
        problems = validate_html(text)
        assert any("embedded JSON payload" in p for p in problems)

    def test_wrong_payload_kind_rejected(self):
        text = self._valid().replace('"kind": "repro-run-report"',
                                     '"kind": "nope"')
        # render uses compact separators; cover both spellings.
        text = text.replace('"kind":"repro-run-report"', '"kind":"nope"')
        problems = validate_html(text)
        assert any("repro-run-report" in p for p in problems)


class TestMainAllArtifacts:
    def test_all_four_ok_exit_zero(self, tmp_path, capsys):
        from repro.obs.explain import DecisionLedger
        from repro.obs.report_html import write_run_report

        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        decisions = tmp_path / "d.json"
        html = tmp_path / "r.html"
        _traced().write(trace)
        registry = MetricsRegistry()
        registry.inc("merge.runs")
        registry.write(metrics)
        ledger = DecisionLedger()
        ledger.decide("run", "run:merge")
        ledger.write(decisions)
        write_run_report(html, tracer=_traced(), metrics=registry,
                         decisions=ledger)
        code = main(["--trace", str(trace), "--metrics", str(metrics),
                     "--explain", str(decisions), "--html", str(html)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 4

    def test_invalid_html_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "r.html"
        bad.write_text("<p>not a report</p>")
        assert main(["--html", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestProfileValidation:
    def _valid(self):
        from repro.obs.profile import Profiler

        profiler = Profiler()
        profiler.start()
        profiler.stop()
        return profiler.export()

    def test_valid_export_passes(self):
        from repro.obs.validate import validate_profile

        assert validate_profile(json.dumps(self._valid())) == []

    def test_detects_wrong_kind_and_self_over_cum(self):
        from repro.obs.validate import validate_profile

        record = self._valid()
        record["kind"] = "nope"
        record["spans"] = [{"name": "x", "count": 1, "cum_s": 1.0,
                            "self_s": 2.0}]
        problems = validate_profile(json.dumps(record))
        assert any("kind" in p for p in problems)
        assert any("self_s exceeds cum_s" in p for p in problems)

    def test_detects_uncontracted_counter(self):
        from repro.obs.validate import validate_profile

        record = self._valid()
        record["counters"] = {"profile.not_a_thing": 1}
        problems = validate_profile(json.dumps(record))
        assert any("METRIC_CONTRACT" in p for p in problems)

    def test_not_json(self):
        from repro.obs.validate import validate_profile

        assert validate_profile("{nope")


class TestTrendsValidation:
    def _valid(self):
        return {
            "schema_version": 1, "kind": "repro-trends",
            "threshold_percent": 25.0,
            "snapshots": [{"label": "a", "path": "a", "meta": {}},
                          {"label": "b", "path": "b", "meta": {}}],
            "series": {"bench.x.run_seconds": {
                "values": [1.0, 2.0], "direction": 1,
                "markers": ["regression"]}},
            "breaks": [],
            "summary": {"snapshots": 2, "metrics": 1,
                        "regressions": 1, "improvements": 0},
        }

    def test_valid_payload_passes(self):
        from repro.obs.validate import validate_trends

        assert validate_trends(json.dumps(self._valid())) == []

    def test_detects_length_and_marker_problems(self):
        from repro.obs.validate import validate_trends

        record = self._valid()
        record["series"]["bench.x.run_seconds"]["values"] = [1.0]
        record["series"]["bench.x.run_seconds"]["markers"] = ["worse"]
        problems = validate_trends(json.dumps(record))
        assert any("one value per snapshot" in p for p in problems)
        assert any("illegal marker" in p for p in problems)

    def test_detects_single_snapshot(self):
        from repro.obs.validate import validate_trends

        record = self._valid()
        record["snapshots"] = record["snapshots"][:1]
        assert validate_trends(json.dumps(record))
