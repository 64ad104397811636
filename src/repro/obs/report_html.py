"""Self-contained HTML run report: one file, the whole story of a run.

``render_run_report`` stitches every observability layer into a single
HTML artifact a reviewer can open from a CI run with zero tooling:

* the **span tree** of the trace (name, duration, attributes, events);
* the **metric snapshot** (counters, gauges, histogram summaries);
* the **provenance table** of every merged group (constraint, rule,
  source modes);
* the **diagnostics** the run recorded (code, severity, message);
* the **decision graph** of the explain ledger, rendered as an indented
  causal forest.

The file is strictly self-contained — inline CSS, no ``<script src=``,
no ``http(s)://`` fetches — and embeds the raw JSON payload in a
``<script type="application/json">`` block so downstream tooling can
re-parse the data without scraping HTML.  ``repro.obs.validate --html``
checks both properties in CI.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List

#: Version of the embedded ``repro-run-report`` JSON payload.
REPORT_HTML_SCHEMA_VERSION = 1

#: Marker comment near the top of the file; the validator keys on it.
HTML_REPORT_MARKER = "<!-- repro-run-report"

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 72em; color: #1c2733; }
h1 { font-size: 1.5em; border-bottom: 2px solid #2b6cb0; }
h2 { font-size: 1.15em; margin-top: 1.6em; color: #2b6cb0; }
table { border-collapse: collapse; width: 100%; font-size: 0.85em; }
th, td { border: 1px solid #cbd5e0; padding: 0.3em 0.6em;
         text-align: left; vertical-align: top; }
th { background: #edf2f7; }
tr:nth-child(even) td { background: #f7fafc; }
.tree { font-family: ui-monospace, Menlo, Consolas, monospace;
        font-size: 0.8em; white-space: pre; line-height: 1.5;
        background: #f7fafc; border: 1px solid #cbd5e0;
        padding: 0.8em; overflow-x: auto; }
.verdict-rejected, .verdict-dropped, .verdict-unresolved,
.severity-error, .severity-fatal { color: #c53030; font-weight: 600; }
.verdict-mergeable, .verdict-merged, .verdict-kept,
.verdict-intersected { color: #276749; }
.verdict-uniquified, .verdict-translated, .verdict-repaired,
.verdict-stopped, .verdict-falsified, .verdict-synthesized,
.severity-warning { color: #975a16; }
.muted { color: #718096; }
summary { cursor: pointer; color: #2b6cb0; margin: 0.4em 0; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _span_rows(tracer) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    if tracer is None or not getattr(tracer, "enabled", False):
        return rows
    for span, depth in tracer.walk():
        rows.append({
            "name": span.name,
            "depth": depth,
            "dur_ms": round(span.duration * 1000, 3),
            "attrs": {str(k): v for k, v in span.attrs.items()},
            "events": [{"name": e["name"],
                        "attrs": {str(k): v for k, v in e["attrs"].items()}}
                       for e in span.events],
        })
    return rows


def build_report_payload(run=None, tracer=None, metrics=None,
                         decisions=None, profile=None, artifacts=None,
                         title: str = "repro merge run") -> Dict[str, Any]:
    """The machine-readable payload embedded in (and driving) the HTML."""
    payload: Dict[str, Any] = {
        "schema_version": REPORT_HTML_SCHEMA_VERSION,
        "kind": "repro-run-report",
        "title": title,
    }
    if artifacts:
        payload["artifacts"] = {str(k): str(v)
                                for k, v in sorted(artifacts.items())}
    if run is not None:
        payload["run"] = run.to_dict()
    payload["trace"] = _span_rows(tracer)
    if metrics is not None and getattr(metrics, "enabled", False):
        payload["metrics"] = metrics.to_dict()
    if decisions is not None and getattr(decisions, "enabled", False):
        payload["decisions"] = decisions.to_dict()
    elif run is not None and getattr(run, "decision_records", None):
        payload["decisions"] = {
            "kind": "repro-decisions",
            "decisions": [d.to_dict() for d in run.decision_records],
        }
    if profile:
        payload["profile"] = profile
    return payload


def _render_summary(run: Dict[str, Any]) -> List[str]:
    out = ["<h2>Run summary</h2>", "<table>"]
    rows = [
        ("Individual modes", run.get("individual_modes")),
        ("Merged modes", run.get("merged_modes")),
        ("Reduction", f"{run.get('reduction_percent', 0)}%"),
        ("Runtime", f"{run.get('runtime_seconds', 0)} s"),
        ("Mergeable pairs", run.get("mergeable_pairs")),
        ("Diagnostics", len(run.get("diagnostics", []))),
        ("Decisions", len(run.get("decisions", []))),
    ]
    for label, value in rows:
        out.append(f"<tr><th>{_esc(label)}</th><td>{_esc(value)}</td></tr>")
    out.append("</table>")
    return out


def _render_groups(run: Dict[str, Any]) -> List[str]:
    out = ["<h2>Groups</h2>", "<table>",
           "<tr><th>Modes</th><th>Merged</th><th>Repaired</th>"
           "<th>Restored</th><th>Constraints</th><th>Error</th></tr>"]
    for group in run.get("groups", []):
        result = group.get("result") or {}
        out.append(
            "<tr>"
            f"<td>{_esc(', '.join(group.get('modes', [])))}</td>"
            f"<td>{'yes' if group.get('merged') else 'no'}</td>"
            f"<td>{'yes' if group.get('repaired') else ''}</td>"
            f"<td>{'yes' if group.get('restored') else ''}</td>"
            f"<td>{_esc(result.get('constraint_count', ''))}</td>"
            f"<td>{_esc(group.get('error') or '')}</td>"
            "</tr>")
    out.append("</table>")
    return out


def _render_artifacts(artifacts: Dict[str, str]) -> List[str]:
    """Relative links to the sibling artifacts of the same run.

    Relative hrefs keep the report self-contained for the validator
    (which only rejects ``http(s)://`` references).
    """
    out = ["<h2>Run artifacts</h2>", "<table>",
           "<tr><th>Kind</th><th>File</th></tr>"]
    for label, href in artifacts.items():
        out.append(
            "<tr>"
            f"<td>{_esc(label)}</td>"
            f"<td><a href=\"{_esc(href)}\">{_esc(href)}</a></td>"
            "</tr>")
    out.append("</table>")
    return out


def _render_trace(rows: List[Dict[str, Any]]) -> List[str]:
    if not rows:
        return []
    lines = []
    for row in rows:
        indent = "  " * row["depth"]
        attrs = ""
        if row["attrs"]:
            attrs = "  " + ", ".join(f"{k}={v}" for k, v
                                     in sorted(row["attrs"].items()))
        lines.append(_esc(f"{indent}{row['name']}: {row['dur_ms']} ms"
                          f"{attrs}"))
        for event in row["events"]:
            lines.append(
                f"{_esc(indent)}  <span class=\"muted\">"
                f"* {_esc(event['name'])}</span>")
    return ["<h2>Trace</h2>", "<div class=\"tree\">",
            "\n".join(lines), "</div>"]


def _render_metrics(metrics: Dict[str, Any]) -> List[str]:
    out = ["<h2>Metrics</h2>", "<table>",
           "<tr><th>Metric</th><th>Kind</th><th>Value</th></tr>"]
    for name, value in metrics.get("counters", {}).items():
        out.append(f"<tr><td>{_esc(name)}</td><td>counter</td>"
                   f"<td>{_esc(value)}</td></tr>")
    for name, value in metrics.get("gauges", {}).items():
        out.append(f"<tr><td>{_esc(name)}</td><td>gauge</td>"
                   f"<td>{_esc(value)}</td></tr>")
    for name, hist in metrics.get("histograms", {}).items():
        summary = (f"count={hist.get('count')} sum={hist.get('sum')}"
                   if isinstance(hist, dict) else hist)
        out.append(f"<tr><td>{_esc(name)}</td><td>histogram</td>"
                   f"<td>{_esc(summary)}</td></tr>")
    out.append("</table>")
    return out


def _render_provenance(run: Dict[str, Any]) -> List[str]:
    rows: List[str] = []
    for group in run.get("groups", []):
        result = group.get("result") or {}
        merged_name = result.get("merged_mode", "")
        for rec in result.get("provenance", []):
            rows.append(
                "<tr>"
                f"<td>{_esc(merged_name)}</td>"
                f"<td>{_esc(rec.get('constraint', ''))}</td>"
                f"<td>{_esc(rec.get('rule', ''))}</td>"
                f"<td>{_esc(', '.join(rec.get('source_modes', [])))}</td>"
                f"<td>{_esc(rec.get('step', ''))}</td>"
                "</tr>")
    if not rows:
        return []
    return (["<h2>Provenance</h2>",
             "<details><summary>"
             f"{len(rows)} constraint lineage record(s)</summary>",
             "<table>",
             "<tr><th>Merged mode</th><th>Constraint</th><th>Rule</th>"
             "<th>Source modes</th><th>Step</th></tr>"]
            + rows + ["</table>", "</details>"])


def _render_diagnostics(run: Dict[str, Any]) -> List[str]:
    diags = run.get("diagnostics", [])
    if not diags:
        return []
    out = ["<h2>Diagnostics</h2>", "<table>",
           "<tr><th>Code</th><th>Severity</th><th>Source</th>"
           "<th>Message</th></tr>"]
    for diag in diags:
        severity = diag.get("severity", "")
        out.append(
            "<tr>"
            f"<td>{_esc(diag.get('code', ''))}</td>"
            f"<td class=\"severity-{_esc(severity)}\">{_esc(severity)}</td>"
            f"<td>{_esc(diag.get('source', ''))}</td>"
            f"<td>{_esc(diag.get('message', ''))}</td>"
            "</tr>")
    out.append("</table>")
    return out


def _render_decisions(decisions: Dict[str, Any]) -> List[str]:
    records = decisions.get("decisions", [])
    if not records:
        return []
    depth: Dict[Any, int] = {}
    lines = []
    for decision in records:
        parent = decision.get("parent")
        d = 0 if parent is None else depth.get(parent, 0) + 1
        depth[decision.get("id")] = d
        verdict = decision.get("verdict", "")
        text = f"[{decision.get('kind')}] {decision.get('subject')}"
        line = "  " * d + _esc(text)
        if verdict:
            line += (f" -&gt; <span class=\"verdict-{_esc(verdict)}\">"
                     f"{_esc(verdict)}</span>")
        evidence = decision.get("evidence", [])
        if evidence:
            line += (f"  <span class=\"muted\">"
                     f"({_esc('; '.join(evidence))})</span>")
        lines.append(line)
    return ["<h2>Decision graph</h2>",
            f"<p>{len(records)} decision(s); query them with "
            "<code>repro-merge explain</code>.</p>",
            "<div class=\"tree\">", "\n".join(lines), "</div>"]


def _render_profile(profile: Dict[str, Any]) -> List[str]:
    out = ["<h2>Profile</h2>",
           f"<p>{_esc(profile.get('total_seconds', 0))} s profiled"
           + (f" (+{_esc(profile.get('worker_seconds'))} s in workers)"
              if profile.get("worker_seconds") else "")
           + ".</p>"]
    spans = profile.get("spans", [])
    if spans:
        ranked = sorted(spans, key=lambda row: -row.get("self_s", 0.0))
        out += ["<h3>Span costs</h3>", "<table>",
                "<tr><th>Span</th><th>Count</th><th>Self ms</th>"
                "<th>Cumulative ms</th></tr>"]
        for row in ranked[:25]:
            out.append(
                "<tr>"
                f"<td>{_esc(row.get('name', ''))}</td>"
                f"<td>{_esc(row.get('count', ''))}</td>"
                f"<td>{_esc(round(row.get('self_s', 0.0) * 1000, 3))}</td>"
                f"<td>{_esc(round(row.get('cum_s', 0.0) * 1000, 3))}</td>"
                "</tr>")
        out.append("</table>")
    for phase, info in profile.get("phases", {}).items():
        functions = info.get("top_functions", [])
        if not functions:
            continue
        out += [f"<details><summary>phase {_esc(phase)}: "
                f"{_esc(round(info.get('self_seconds', 0.0) * 1000, 3))} ms "
                f"self across {_esc(info.get('functions', 0))} "
                "function(s)</summary>",
                "<table>",
                "<tr><th>Function</th><th>Calls</th><th>Self ms</th>"
                "<th>Cumulative ms</th></tr>"]
        for fn in functions:
            out.append(
                "<tr>"
                f"<td>{_esc(fn.get('function', ''))}</td>"
                f"<td>{_esc(fn.get('calls', ''))}</td>"
                f"<td>{_esc(round(fn.get('self_s', 0.0) * 1000, 3))}</td>"
                f"<td>{_esc(round(fn.get('cum_s', 0.0) * 1000, 3))}</td>"
                "</tr>")
        out += ["</table>", "</details>"]
    counters = profile.get("counters", {})
    if counters:
        out += ["<h3>Hot-loop counters</h3>", "<table>",
                "<tr><th>Counter</th><th>Value</th></tr>"]
        for name in sorted(counters):
            out.append(f"<tr><td>{_esc(name)}</td>"
                       f"<td>{_esc(counters[name])}</td></tr>")
        out.append("</table>")
    return out


def render_run_report(run=None, tracer=None, metrics=None, decisions=None,
                      profile=None, artifacts=None,
                      title: str = "repro merge run") -> str:
    """One self-contained HTML page covering every observability layer."""
    payload = build_report_payload(run, tracer, metrics, decisions,
                                   profile=profile, artifacts=artifacts,
                                   title=title)
    run_dict = payload.get("run", {})
    body: List[str] = [f"<h1>{_esc(title)}</h1>"]
    if run_dict:
        body += _render_summary(run_dict)
        body += _render_groups(run_dict)
    if payload.get("artifacts"):
        body += _render_artifacts(payload["artifacts"])
    body += _render_trace(payload.get("trace", []))
    if "metrics" in payload:
        body += _render_metrics(payload["metrics"])
    if run_dict:
        body += _render_provenance(run_dict)
        body += _render_diagnostics(run_dict)
    if "decisions" in payload:
        body += _render_decisions(payload["decisions"])
    if "profile" in payload:
        body += _render_profile(payload["profile"])
    # "</" inside the JSON would close the script block early.
    blob = json.dumps(payload).replace("</", "<\\/")
    return "\n".join([
        "<!DOCTYPE html>",
        f"{HTML_REPORT_MARKER} schema={REPORT_HTML_SCHEMA_VERSION} -->",
        "<html lang=\"en\">",
        "<head>",
        "<meta charset=\"utf-8\">",
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head>",
        "<body>",
        *body,
        f"<script type=\"application/json\" id=\"repro-run-report-data\">"
        f"{blob}</script>",
        "</body>",
        "</html>",
    ]) + "\n"


def write_run_report(path, run=None, tracer=None, metrics=None,
                     decisions=None, profile=None, artifacts=None,
                     title: str = "repro merge run") -> None:
    with open(path, "w") as handle:
        handle.write(render_run_report(run, tracer, metrics, decisions,
                                       profile=profile, artifacts=artifacts,
                                       title=title))
