"""Unit tests for the self-contained HTML run report (repro.obs.report_html)."""

import json

import pytest

from repro.core import merge_all
from repro.obs.context import ObsContext, observing
from repro.obs.explain import DecisionLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.report_html import (
    HTML_REPORT_MARKER,
    REPORT_HTML_SCHEMA_VERSION,
    build_report_payload,
    render_run_report,
    write_run_report,
)
from repro.obs.trace import Tracer
from repro.obs.validate import validate_html
from repro.sdc import parse_mode

MODE = "create_clock -name CK -period 10 [get_ports clk]\n"


@pytest.fixture
def instrumented(pipeline_netlist):
    netlist = pipeline_netlist
    modes = [parse_mode(MODE, "A"),
             parse_mode(MODE + "set_false_path -to [get_pins rB/D]\n", "B")]
    tracer, metrics, ledger = Tracer(), MetricsRegistry(), DecisionLedger()
    with observing(ObsContext.build(tracer=tracer, metrics=metrics,
                                    decisions=ledger)):
        run = merge_all(netlist, modes)
    return run, tracer, metrics, ledger


def _payload_of(text):
    start = text.find('<script type="application/json"')
    end = text.find("</script>", start)
    return json.loads(text[text.find(">", start) + 1:end])


class TestPayload:
    def test_all_layers_present(self, instrumented):
        run, tracer, metrics, ledger = instrumented
        payload = build_report_payload(run, tracer, metrics, ledger)
        assert payload["kind"] == "repro-run-report"
        assert payload["schema_version"] == REPORT_HTML_SCHEMA_VERSION
        assert payload["run"]["merged_modes"] >= 1
        assert payload["trace"], "span rows expected"
        assert payload["metrics"]["counters"]
        assert payload["decisions"]["decisions"]

    def test_decisions_fall_back_to_run_snapshot(self, instrumented):
        run, _, _, _ = instrumented
        payload = build_report_payload(run)
        assert payload["decisions"]["decisions"]

    def test_disabled_layers_omitted(self):
        payload = build_report_payload()
        assert payload["trace"] == []
        assert "metrics" not in payload
        assert "decisions" not in payload


class TestRender:
    def test_self_contained_and_valid(self, instrumented):
        run, tracer, metrics, ledger = instrumented
        text = render_run_report(run, tracer, metrics, ledger,
                                 title="unit test run")
        assert validate_html(text) == []
        assert HTML_REPORT_MARKER in text
        assert "<script src=" not in text
        assert "http://" not in text and "https://" not in text

    def test_sections_rendered(self, instrumented):
        run, tracer, metrics, ledger = instrumented
        text = render_run_report(run, tracer, metrics, ledger)
        for heading in ("Run summary", "Groups", "Trace", "Metrics",
                        "Decision graph"):
            assert f"<h2>{heading}</h2>" in text, heading

    def test_embedded_payload_parses(self, instrumented):
        run, tracer, metrics, ledger = instrumented
        payload = _payload_of(render_run_report(run, tracer, metrics,
                                                ledger))
        assert payload["kind"] == "repro-run-report"
        assert len(payload["decisions"]["decisions"]) == len(ledger.records)

    def test_script_close_tag_escaped(self):
        tracer = Tracer()
        with tracer.span("</script><script>alert(1)</script>"):
            pass
        text = render_run_report(tracer=tracer)
        payload = _payload_of(text)
        assert "</script>" in payload["trace"][0]["name"]
        # The hostile name never produces a premature close tag.
        assert text.count("</script>") == 1

    def test_html_in_attrs_escaped(self):
        tracer = Tracer()
        with tracer.span("s", note="<img src=x onerror=alert(1)>"):
            pass
        text = render_run_report(tracer=tracer)
        assert "<img src=x" not in text.split("<script")[0]

    def test_empty_report_still_validates(self):
        assert validate_html(render_run_report()) == []


class TestWrite:
    def test_write_round_trip(self, tmp_path, instrumented):
        run, tracer, metrics, ledger = instrumented
        path = tmp_path / "report.html"
        write_run_report(path, run=run, tracer=tracer, metrics=metrics,
                         decisions=ledger)
        text = path.read_text()
        assert validate_html(text) == []
        assert _payload_of(text)["run"]["merged_modes"] >= 1
