"""Unit tests for the structured-diagnostics subsystem."""

import json
import re
from pathlib import Path

import pytest

from repro import diagnostics, errors
from repro.diagnostics import (
    DegradationPolicy,
    Diagnostic,
    DiagnosticCollector,
    Severity,
    code_for_error,
    diagnostic_from_error,
)


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.WARNING <= Severity.WARNING

    def test_rank_is_total(self):
        ranks = {s.rank for s in Severity}
        assert len(ranks) == len(list(Severity))


class TestDegradationPolicy:
    def test_coerce_from_string(self):
        assert DegradationPolicy.coerce("strict") is DegradationPolicy.STRICT
        assert DegradationPolicy.coerce("LENIENT") is DegradationPolicy.LENIENT
        assert DegradationPolicy.coerce(
            "permissive") is DegradationPolicy.PERMISSIVE

    def test_coerce_passthrough_and_none(self):
        assert DegradationPolicy.coerce(
            DegradationPolicy.LENIENT) is DegradationPolicy.LENIENT
        assert DegradationPolicy.coerce(None) is DegradationPolicy.STRICT

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown degradation policy"):
            DegradationPolicy.coerce("yolo")

    def test_recovery_predicates(self):
        assert not DegradationPolicy.STRICT.recovers_commands
        assert not DegradationPolicy.STRICT.recovers_syntax
        assert DegradationPolicy.LENIENT.recovers_commands
        assert not DegradationPolicy.LENIENT.recovers_syntax
        assert DegradationPolicy.PERMISSIVE.recovers_commands
        assert DegradationPolicy.PERMISSIVE.recovers_syntax


class TestDiagnostic:
    def test_format_includes_code_severity_location(self):
        d = Diagnostic(code="SDC001", message="boom", source="a.sdc", line=4,
                       severity=Severity.WARNING, hint="do the thing")
        text = d.format()
        assert "[SDC001]" in text
        assert "WARNING" in text
        assert "a.sdc:4" in text
        assert "boom" in text
        assert "do the thing" in text

    def test_format_without_location(self):
        d = Diagnostic(code="GEN000", message="x")
        assert "GEN000" in d.format()
        assert ":0" not in d.format()

    def test_to_dict_is_json_serializable(self):
        d = Diagnostic(code="MRG001", message="m", details={
            "cycle_pins": ["a", "b"], "obj": object()})
        payload = json.dumps(d.to_dict())
        assert "cycle_pins" in payload


class TestCodeMapping:
    @pytest.mark.parametrize("exc,code", [
        (errors.SdcSyntaxError("s", 2), "SDC002"),
        (errors.SdcCommandError("c", "m", 1), "SDC003"),
        (errors.SdcLookupError("l"), "SDC004"),
        (errors.VerilogSyntaxError("v", 3), "NET001"),
        (errors.DuplicateObjectError("net", "n"), "NET002"),
        (errors.ConnectivityError("c"), "NET002"),
        (errors.MergeStepError("clock_union", ["A"], ValueError("x")),
         "MRG001"),
        (errors.NotMergeableError("A", "B", "r"), "MRG002"),
        (errors.RefinementError("r"), "MRG003"),
        (errors.EquivalenceError("e"), "MRG004"),
        (errors.CombinationalLoopError(["a", "b"]), "TIM001"),
        (errors.NoClockError("n"), "TIM001"),
        (FileNotFoundError(2, "no such file"), "IO001"),
        (ValueError("plain"), "GEN000"),
    ])
    def test_stable_codes(self, exc, code):
        assert code_for_error(exc) == code

    def test_unicode_decode_error_is_io002(self):
        exc = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
        assert code_for_error(exc) == "IO002"


class TestRetiredCodes:
    """A retired code stays in the code table and is never reused."""

    @staticmethod
    def retired():
        return re.findall(r"^``([A-Z]+[0-9]{3})``\s+retired\b.*never reuse$",
                          diagnostics.__doc__, re.MULTILINE)

    def test_table_marks_the_retired_codes(self):
        retired = self.retired()
        assert {"SGN007", "SGN008", "SGN009", "EXE008"} <= set(retired)
        assert {f"SRV00{i}" for i in range(1, 10)} <= set(retired)
        assert {"CAC003", "CAC004"} <= set(retired)
        mapped = {code for _type, code in diagnostics._ERROR_CODES}
        assert not set(retired) & (mapped | set(diagnostics._CODE_HINTS))

    def test_no_other_module_names_a_retired_code(self):
        retired = self.retired()
        own = Path(diagnostics.__file__)
        for path in sorted(own.parent.rglob("*.py")):
            if path == own:
                continue
            text = path.read_text()
            named = [code for code in retired if code in text]
            assert not named, f"{path} names retired code(s) {named}"


class TestDiagnosticFromError:
    def test_line_number_propagates(self):
        d = diagnostic_from_error(errors.SdcSyntaxError("bad", 17),
                                  source="x.sdc")
        assert d.line == 17
        assert d.source == "x.sdc"
        assert d.details["line"] == 17

    def test_default_hint_from_code(self):
        d = diagnostic_from_error(FileNotFoundError(2, "nope"))
        assert d.hint  # IO001 has a stock hint


class TestDiagnosticCollector:
    def test_collects_and_counts(self):
        c = DiagnosticCollector()
        c.report("SDC001", "one", severity=Severity.WARNING)
        c.report("MRG001", "two", severity=Severity.ERROR)
        c.report("SDC005", "three", severity=Severity.INFO)
        assert len(c) == 3
        assert c.count(Severity.WARNING) == 1
        assert c.worst is Severity.ERROR
        assert c.has_errors and c.has_warnings
        assert [d.code for d in c.by_code("SDC001")] == ["SDC001"]

    def test_exit_code_contract(self):
        clean = DiagnosticCollector()
        assert clean.exit_code() == 0
        warn = DiagnosticCollector()
        warn.report("SDC001", "w", severity=Severity.WARNING)
        assert warn.exit_code() == 1
        err = DiagnosticCollector()
        err.report("IO001", "e", severity=Severity.ERROR)
        assert err.exit_code() == 2

    def test_capture_wraps_exception(self):
        c = DiagnosticCollector()
        d = c.capture(errors.SdcCommandError("create_clock", "bad", 5),
                      source="m.sdc")
        assert d.code == "SDC003"
        assert d.line == 5
        assert c.diagnostics == [d]

    def test_summary_and_json(self):
        c = DiagnosticCollector()
        assert c.summary() == "no diagnostics"
        c.report("SDC001", "msg", severity=Severity.WARNING, source="f", line=1)
        assert "1 diagnostics" in c.summary()
        record = json.loads(c.to_json())
        assert record["counts"]["warning"] == 1
        assert record["exit_code"] == 1

    def test_extend(self):
        a = DiagnosticCollector()
        a.report("SDC001", "x", severity=Severity.INFO)
        b = DiagnosticCollector()
        b.extend(a)
        assert len(b) == 1
