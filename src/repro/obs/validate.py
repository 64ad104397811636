"""The artifact zoo: every observability artifact, declared once.

:data:`ARTIFACT_ZOO` holds one :class:`Artifact` entry per
schema-versioned artifact the toolchain writes: its ``kind`` string,
schema version, producer, validator switch and field schema.  The
validators, the switches of ``python -m repro.obs.validate``, the
``repro-merge --version`` banner and the artifact-zoo table of
docs/OBSERVABILITY.md all follow from it.  CI validates every artifact
it uploads, so a run cannot silently ship one that downstream tooling
cannot read.

A field schema is one of:

* a type, or a tuple of types: the value is an instance of it;
* ``[item]``: a list whose every element matches ``item``;
* ``{key: schema}``: an object that has each key, matching its schema;
* ``{str: schema}``: a map whose every value matches ``schema``;
* ``(predicate, message)``: ``predicate(value)`` holds.

What a field list cannot state (metric names against the contract,
histogram shape, decision order, ...) is a named check.  An entry's
checks run once its record matches the schema, so they index freely.

Usable as a module::

    python -m repro.obs.validate --trace t.json --metrics m.json \
        --explain d.json --html report.html --profile p.json \
        --trends trends.json --trends-html trends.html \
        --blackbox blackbox.json --fuzz fuzz.json
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from repro.cache import CACHE_KIND, CACHE_SCHEMA_VERSION
from repro.diagnostics import DIAGNOSTICS_SCHEMA_VERSION
from repro.fuzz import FUZZ_KIND, FUZZ_SCHEMA_VERSION, ORACLE_NAMES
from repro.obs.blackbox import BLACKBOX_KIND, BLACKBOX_SCHEMA_VERSION
from repro.obs.explain import DECISION_KINDS, DECISIONS_SCHEMA_VERSION
from repro.obs.metrics import METRIC_CONTRACT, METRICS_SCHEMA_VERSION
from repro.obs.profile import PROFILE_SCHEMA_VERSION
from repro.obs.provenance import PROVENANCE_SCHEMA_VERSION
from repro.obs.report_html import REPORT_HTML_SCHEMA_VERSION
from repro.obs.trace import TRACE_SCHEMA_VERSION
from repro.obs.trends import TRENDS_SCHEMA_VERSION

#: Schema shorthands.  ``ANY`` only requires the key to be present.
ANY = object
NUMBER = (int, float)
NON_NEGATIVE = (lambda v: isinstance(v, NUMBER) and v >= 0,
                "is not a non-negative number")
COUNT = (lambda v: isinstance(v, int) and v >= 0,
         "is not a non-negative integer")
NON_EMPTY = (bool, "is empty")


def _at(path: str, text: str) -> str:
    return f"{path} {text}" if path else text


def _walk(value: Any, schema: Any, path: str = "") -> List[str]:
    """Problems of ``value`` against ``schema`` (see the module doc)."""
    if isinstance(schema, list):
        if not isinstance(value, list):
            return [_at(path, "is not a list")]
        return [problem for i, item in enumerate(value)
                for problem in _walk(item, schema[0], f"{path}[{i}]")]
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            return [_at(path, "is not an object")]
        if str in schema:
            return [problem for key, item in value.items()
                    for problem in _walk(item, schema[str],
                                        f"{path}[{key!r}]")]
        problems: List[str] = []
        for key, field in schema.items():
            if key not in value:
                problems.append(_at(path, f"missing {key!r}"))
            else:
                problems += _walk(value[key], field,
                                 f"{path}.{key}" if path else key)
        return problems
    if isinstance(schema, tuple) and isinstance(schema[-1], str):
        predicate, message = schema
        return [] if predicate(value) else [_at(path, message)]
    if isinstance(value, schema):
        return []
    names = "/".join(t.__name__ for t in
                     (schema if isinstance(schema, tuple) else (schema,)))
    return [_at(path, f"is {type(value).__name__}, expected {names}")]


@dataclass(frozen=True)
class Artifact:
    """One artifact of the zoo, declared once."""

    #: the zoo row and ``--version`` label
    name: str
    version: int
    producer: str
    #: the ``python -m repro.obs.validate`` switch ("" = no validator)
    switch: str = ""
    #: the artifact's ``kind`` field (an HTML artifact's payload kind)
    kind: str = ""
    schema: Any = dict
    checks: Tuple[Callable[[dict], List[str]], ...] = ()
    #: validates a non-JSON artifact's text in place of the JSON path
    reader: Optional[Callable[["Artifact", str], List[str]]] = None

    def header(self, record: Any, where: str = "") -> List[str]:
        """Problems with a parsed record's ``kind`` and version."""
        if not isinstance(record, dict):
            return [_at(where, "is not a JSON object")]
        return [_at(where, f"{field} is {record.get(field)!r}, "
                           f"expected {want!r}")
                for field, want in (("kind", self.kind),
                                    ("schema_version", self.version))
                if record.get(field) != want]

    def validate(self, text: str) -> List[str]:
        """Problems with the artifact's text (empty list = valid)."""
        if self.reader is not None:
            return self.reader(self, text)
        try:
            record = json.loads(text)
        except ValueError as exc:
            return [f"not JSON: {exc}"]
        problems = self.header(record)
        if isinstance(record, dict):
            shape = _walk(record, self.schema)
            problems += shape or [problem for check in self.checks
                                  for problem in check(record)]
        return problems


# -- named checks -------------------------------------------------------
def _undeclared_counters(record: dict) -> List[str]:
    return [f"counter {name!r} is not in METRIC_CONTRACT"
            for name in record["counters"] if name not in METRIC_CONTRACT]


def _metric_kinds(record: dict) -> List[str]:
    problems = []
    for section, kind in (("counters", "counter"), ("gauges", "gauge"),
                          ("histograms", "histogram")):
        for name in record[section]:
            declared = METRIC_CONTRACT.get(name, (kind,))[0]
            if declared != kind:
                problems.append(f"{name!r} exported as {kind} but "
                                f"declared {declared}")
    return problems


def _histogram_shape(record: dict) -> List[str]:
    problems = []
    for name, hist in record["histograms"].items():
        if len(hist["counts"]) != len(hist["buckets"]) + 1:
            problems.append(f"histogram {name!r} needs len(buckets)+1 "
                            f"counts (+Inf bucket)")
        if hist["count"] != sum(hist["counts"]):
            problems.append(f"histogram {name!r} count != sum(counts)")
    return problems


def _parents_precede(record: dict) -> List[str]:
    problems, seen = [], set()
    for i, decision in enumerate(record["decisions"]):
        parent = decision["parent"]
        if parent is not None and parent not in seen:
            problems.append(f"decision {i} parent {parent!r} does not "
                            f"precede it (dangling or forward ref)")
        seen.add(decision["id"])
    return problems


def _self_within_cum(record: dict) -> List[str]:
    return [f"span {i} self_s exceeds cum_s"
            for i, span in enumerate(record["spans"])
            if span["self_s"] > span["cum_s"] + 1e-6]


def _trend_series(record: dict) -> List[str]:
    snapshots = len(record["snapshots"])
    problems = [] if snapshots >= 2 else [
        "snapshots holds fewer than two entries"]
    for name, entry in record["series"].items():
        if len(entry["values"]) != snapshots:
            problems.append(f"series {name!r} needs one value per "
                            f"snapshot")
        if len(entry["markers"]) != max(0, snapshots - 1):
            problems.append(f"series {name!r} needs one marker per "
                            f"adjacent snapshot pair")
        problems += [f"series {name!r} has illegal marker {marker!r}"
                     for marker in entry["markers"]
                     if marker not in (None, "regression", "improvement")]
    return problems


def _trace_jsonl(trace: Artifact, text: str) -> List[str]:
    """A JSONL trace: one header line, then one span per line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["trace file is empty"]
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        return [f"header line is not JSON: {exc}"]
    problems = trace.header(header, "header")
    if len(lines) < 2:
        problems.append("trace has a header but no spans")
    for i, line in enumerate(lines[1:], start=2):
        try:
            span = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {i} is not JSON: {exc}")
            continue
        problems += _walk(span, trace.schema["spans"], f"line {i}")
    return problems


def _trace_chrome(trace: Artifact, text: str) -> List[str]:
    """A Chrome ``trace_event`` object: no header, Perfetto reads it."""
    try:
        record = json.loads(text)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    problems = _walk(record, {"traceEvents": trace.schema["traceEvents"]})
    if problems:
        return problems
    events = record["traceEvents"]
    # "X" complete events carry a duration; "i" instant events (span
    # markers such as bridged diagnostics) are points in time.
    return (["traceEvents is empty"] if not events else []) + [
        f"traceEvents[{i}] missing 'dur'" for i, event in enumerate(events)
        if event["ph"] != "i" and "dur" not in event]


def _read_trace(trace: Artifact, text: str) -> List[str]:
    if text.lstrip().startswith("{") and '"traceEvents"' in text:
        return _trace_chrome(trace, text)
    return _trace_jsonl(trace, text)


#: Attribute prefixes that would make an HTML artifact fetch from the
#: network.
_NETWORK_FETCHES = ('src="http://', 'src="https://', 'href="http://',
                    'href="https://', "src='http://", "src='https://",
                    "href='http://", "href='https://", "@import url(http")


def _read_html(artifact: Artifact, text: str) -> List[str]:
    """A single self-contained file: its ``<!-- KIND`` marker comment,
    no network fetch, and an embedded JSON payload of the entry's kind
    and version."""
    problems = []
    marker = f"<!-- {artifact.kind}"
    if marker not in text:
        problems.append(f"missing {marker!r} marker comment")
    lowered = text.lower()
    if "<html" not in lowered:
        problems.append("missing <html> element")
    problems += [f"network fetch {needle!r} found: the report must be "
                 f"self-contained"
                 for needle in _NETWORK_FETCHES if needle in lowered]
    start = text.find('<script type="application/json"')
    if start == -1:
        return problems + ["missing embedded JSON payload "
                           "(<script type=\"application/json\">)"]
    end = text.find("</script>", start)
    try:
        payload = json.loads(text[text.find(">", start) + 1:end])
    except ValueError as exc:
        return problems + [f"embedded JSON payload is not JSON: {exc}"]
    return problems + artifact.header(payload, "payload")


#: Every artifact the toolchain writes, by name.  docs/OBSERVABILITY.md
#: renders it as the "artifact zoo" table and a contract test keeps the
#: two equal.
ARTIFACT_ZOO = {artifact.name: artifact for artifact in (
    Artifact(
        "trace", TRACE_SCHEMA_VERSION, "--trace OUT.json[l]", "--trace",
        kind="repro-trace", reader=_read_trace,
        schema={"spans": {"name": str, "start_s": NUMBER,
                          "dur_s": NON_NEGATIVE, "depth": int,
                          "attrs": dict},
                "traceEvents": [{
                    "name": str, "ts": NUMBER, "pid": int, "tid": int,
                    "ph": (lambda ph: ph in ("X", "i"),
                           "is unknown, expected 'X' (complete) or 'i' "
                           "(instant)")}]}),
    Artifact(
        "metrics", METRICS_SCHEMA_VERSION, "--metrics OUT.json",
        "--metrics", kind="repro-metrics",
        schema={"counters": {str: NUMBER}, "gauges": dict,
                "histograms": {str: {"buckets": [NUMBER],
                                     "counts": [NUMBER],
                                     "count": NUMBER}}},
        checks=(_undeclared_counters, _metric_kinds, _histogram_shape)),
    Artifact(
        "decisions", DECISIONS_SCHEMA_VERSION,
        "--explain OUT.json / explain verb", "--explain",
        kind="repro-decisions",
        schema={"decisions": [{
            "id": int, "subject": ANY, "verdict": ANY, "evidence": list,
            "span": ANY, "attrs": ANY,
            "kind": (lambda kind: isinstance(kind, str)
                     and kind in DECISION_KINDS,
                     "is not in DECISION_KINDS"),
            "parent": (lambda parent: parent is None
                       or isinstance(parent, int),
                       "is neither null nor an integer")}]},
        checks=(_parents_precede,)),
    Artifact(
        "provenance", PROVENANCE_SCHEMA_VERSION,
        "--provenance (inside merge_report.json)"),
    Artifact(
        "diagnostics", DIAGNOSTICS_SCHEMA_VERSION, "--diagnostics OUT.json"),
    Artifact(
        "cache", CACHE_SCHEMA_VERSION,
        "--cache DIR (one pair pack per scan, one file per group)",
        kind=CACHE_KIND),
    Artifact(
        "profile", PROFILE_SCHEMA_VERSION, "--profile OUT.json",
        "--profile", kind="repro-profile",
        schema={"total_seconds": NON_NEGATIVE,
                "worker_seconds": NON_NEGATIVE,
                "spans": [{"name": str, "count": int,
                           "cum_s": NON_NEGATIVE, "self_s": NON_NEGATIVE}],
                "phases": {str: {"self_seconds": NUMBER, "functions": int,
                                 "top_functions": [{
                                     "function": str, "calls": int,
                                     "self_s": NUMBER, "cum_s": NUMBER}]}},
                "counters": {str: NUMBER}},
        checks=(_undeclared_counters, _self_within_cum)),
    Artifact(
        "trends", TRENDS_SCHEMA_VERSION,
        "python -m repro.obs.trends --json OUT", "--trends",
        kind="repro-trends",
        schema={"snapshots": [{"label": ANY}],
                "series": {str: {"values": list, "markers": list,
                                 "direction": (lambda d: d in (0, 1),
                                               "is not 0 or 1")}},
                "summary": {"snapshots": int, "metrics": int,
                            "regressions": int, "improvements": int}},
        checks=(_trend_series,)),
    Artifact(
        "trends.html", TRENDS_SCHEMA_VERSION,
        "python -m repro.obs.trends -o OUT", "--trends-html",
        kind="repro-trends", reader=_read_html),
    Artifact(
        "blackbox", BLACKBOX_SCHEMA_VERSION,
        "always on; flushed on abnormal exit (doctor verb reads it)",
        "--blackbox", kind=BLACKBOX_KIND,
        schema={"reason": {"kind": NON_EMPTY},
                "environment": {"version": ANY, "python": ANY, "pid": ANY,
                                "argv": ANY},
                "events": [{"kind": NON_EMPTY, "t": NON_NEGATIVE}],
                "open_frames": list,
                "frame_seconds": dict, "dropped": COUNT,
                "uptime_seconds": NUMBER}),
    Artifact(
        "report.html", REPORT_HTML_SCHEMA_VERSION, "--report-html OUT.html",
        "--html", kind="repro-run-report", reader=_read_html),
    Artifact(
        "fuzz", FUZZ_SCHEMA_VERSION, "fuzz verb (fuzz.json run summary)",
        "--fuzz", kind=FUZZ_KIND,
        schema={"seed": int,
                "families": (lambda v: isinstance(v, list) and v,
                             "is not a non-empty list"),
                "oracles": (lambda v: isinstance(v, list) and v and all(
                    oracle in ORACLE_NAMES for oracle in v),
                    "is empty or names an oracle outside ORACLE_NAMES"),
                "cases": [{"case_id": ANY, "family": ANY, "case_seed": ANY,
                           "ok": ANY, "oracles": ANY,
                           "violations": [{"oracle": NON_EMPTY,
                                           "detail": ANY}]}],
                "summary": {key: COUNT for key in (
                    "cases", "violations", "new_bundles", "duplicates",
                    "rejected")}}),
)}

validate_trace = ARTIFACT_ZOO["trace"].validate
validate_trace_jsonl = partial(_trace_jsonl, ARTIFACT_ZOO["trace"])
validate_trace_chrome = partial(_trace_chrome, ARTIFACT_ZOO["trace"])
validate_metrics = ARTIFACT_ZOO["metrics"].validate
validate_decisions = ARTIFACT_ZOO["decisions"].validate
validate_profile = ARTIFACT_ZOO["profile"].validate
validate_trends = ARTIFACT_ZOO["trends"].validate
validate_trends_html = ARTIFACT_ZOO["trends.html"].validate
validate_blackbox = ARTIFACT_ZOO["blackbox"].validate
validate_html = ARTIFACT_ZOO["report.html"].validate
validate_fuzz = ARTIFACT_ZOO["fuzz"].validate


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate repro observability artifacts.")
    checked = [a for a in ARTIFACT_ZOO.values() if a.switch]
    for artifact in checked:
        parser.add_argument(artifact.switch, dest=artifact.name,
                            metavar="FILE",
                            help=f"{artifact.name} ({artifact.producer})")
    args = parser.parse_args(argv)
    chosen = [(a, getattr(args, a.name)) for a in checked
              if getattr(args, a.name)]
    if not chosen:
        parser.error("nothing to validate: pass one or more of "
                     + ", ".join(a.switch for a in checked))

    failed = False
    for artifact, path in chosen:
        try:
            with open(path) as handle:
                problems = artifact.validate(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            problems = [f"unreadable: {exc}"]
        if problems:
            failed = True
            print(f"{artifact.name} {path}: INVALID", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
        else:
            print(f"{artifact.name} {path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
