"""Benchmark trend analytics: ``python -m repro.obs.trends``.

Where :mod:`repro.obs.bench_diff` gates one pair of ``BENCH_*.json``
snapshots, this module aggregates a *series* of them — e.g. one
snapshot directory per CI run under ``REPRO_BENCH_DIR`` — into a
self-contained HTML trend report plus a machine-readable
``trends.json``::

    python -m repro.obs.trends bench-2026-01 bench-2026-02 bench-2026-03 \
        -o trends.html --json trends.json

Each snapshot is a directory of ``BENCH_*.json`` files (or a single
file); snapshots are ordered as given, labelled by basename.  Per
metric the payload carries the value series and a direction-aware
marker per step, reusing :mod:`bench_diff` semantics: a metric whose
name marks it regression-gated (``seconds``, ``runtime``,
``diagnostics``, ...) is marked ``"regression"`` when it worsens past
the threshold and ``"improvement"`` when it recovers by as much;
neutral metrics are plotted but never marked.  Snapshots whose
embedded ``bench_meta`` (python, schema version) differs from the
previous snapshot are flagged as comparability *breaks* so a "20%
regression" across a machine change reads as suspect, not actionable.

Reporting, not gating: the exit code distinguishes usable inputs (0)
from unusable ones (2) — ``bench_diff`` remains the pairwise CI gate.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.bench_diff import _flatten, regression_direction

TRENDS_SCHEMA_VERSION = 1

#: First bytes of every trend report; validators key on this marker.
TRENDS_HTML_MARKER = "<!-- repro-trends"

#: ``bench_meta`` keys whose change breaks run-to-run comparability.
META_BREAK_KEYS = ("python", "schema_version")


class TrendsError(ValueError):
    """A snapshot path is unreadable or not a benchmark artifact."""


def discover_snapshots(directory: Optional[str] = None) -> List[str]:
    """Snapshot subdirectories of ``REPRO_BENCH_DIR``, sorted by name.

    A subdirectory counts as a snapshot when it holds at least one
    ``BENCH_*.json``; sort order is the series order, so date-stamped
    directory names (``bench-2026-01-07``) chart chronologically.
    """
    if directory is None:
        directory = os.environ.get("REPRO_BENCH_DIR", "")
    if not directory:
        return []
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(str(child) for child in root.iterdir()
                  if child.is_dir() and any(child.glob("BENCH_*.json")))


def load_snapshot(path: Union[str, Path]) -> dict:
    """One snapshot (directory of ``BENCH_*.json`` or a single file)
    flattened to ``{label, path, metrics, meta}``.

    In a directory every ``BENCH_*.json`` contributes its metrics
    (sorted filename order, later files win name collisions — benign,
    since each bench writes a snapshot of the same shared registry).
    """
    target = Path(path)
    if target.is_dir():
        files = sorted(target.glob("BENCH_*.json"))
        if not files:
            raise TrendsError(f"{target}: no BENCH_*.json files")
    elif target.is_file():
        files = [target]
    else:
        raise TrendsError(f"{target}: no such snapshot")
    metrics: Dict[str, float] = {}
    meta: Dict[str, object] = {}
    for file in files:
        try:
            record = json.loads(file.read_text())
        except (OSError, ValueError) as exc:
            raise TrendsError(f"{file}: unreadable: {exc}") from exc
        if record.get("kind") != "repro-metrics":
            raise TrendsError(f"{file}: kind is {record.get('kind')!r}, "
                              f"expected 'repro-metrics'")
        metrics.update(_flatten(record))
        embedded = record.get("bench_meta")
        if isinstance(embedded, dict):
            meta.update(embedded)
    return {"label": target.name, "path": str(target),
            "metrics": metrics, "meta": meta}


def _step_marker(name: str, old: Optional[float], new: Optional[float],
                 threshold_percent: float) -> Optional[str]:
    """bench_diff semantics applied to one adjacent snapshot pair."""
    if old is None or new is None or regression_direction(name) == 0:
        return None
    if old == 0:
        percent = None if new == 0 else float("inf")
    else:
        percent = (new - old) / abs(old) * 100.0
    if percent is None:
        return None
    if percent > threshold_percent:
        return "regression"
    if percent < -threshold_percent:
        return "improvement"
    return None


def build_trends(snapshots: List[dict],
                 threshold_percent: float = 25.0) -> dict:
    """The trend payload over an ordered snapshot series.

    ``series[name]`` holds ``values`` (one per snapshot, ``None`` where
    the metric is absent), the metric's ``direction`` (+1 =
    regression-gated upward, 0 = neutral) and ``markers`` — one per
    adjacent pair, each ``None``/``"regression"``/``"improvement"``.
    """
    if len(snapshots) < 2:
        raise TrendsError(
            f"need at least two snapshots, got {len(snapshots)}")
    names = sorted({name for snap in snapshots
                    for name in snap["metrics"]})
    series: Dict[str, dict] = {}
    regressions = improvements = 0
    for name in names:
        values = [snap["metrics"].get(name) for snap in snapshots]
        markers = [_step_marker(name, values[i], values[i + 1],
                                threshold_percent)
                   for i in range(len(values) - 1)]
        regressions += markers.count("regression")
        improvements += markers.count("improvement")
        series[name] = {"values": values,
                        "direction": regression_direction(name),
                        "markers": markers}
    breaks = []
    for index in range(1, len(snapshots)):
        previous, current = snapshots[index - 1]["meta"], \
            snapshots[index]["meta"]
        changed = sorted(key for key in META_BREAK_KEYS
                         if previous.get(key) != current.get(key)
                         and (key in previous or key in current))
        if changed:
            breaks.append({"index": index, "changed": changed})
    return {
        "schema_version": TRENDS_SCHEMA_VERSION,
        "kind": "repro-trends",
        "threshold_percent": threshold_percent,
        "snapshots": [{"label": snap["label"], "path": snap["path"],
                       "meta": snap["meta"]} for snap in snapshots],
        "series": series,
        "breaks": breaks,
        "summary": {"snapshots": len(snapshots), "metrics": len(names),
                    "regressions": regressions,
                    "improvements": improvements},
    }


def write_trends_json(path: Union[str, Path], payload: dict) -> Path:
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


# -- HTML rendering ----------------------------------------------------------

def _esc(value: object) -> str:
    return (str(value).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _sparkline(values: List[Optional[float]],
               markers: List[Optional[str]]) -> str:
    """An inline SVG polyline over the known values; marked steps get a
    coloured dot on the step's endpoint."""
    known = [value for value in values if value is not None]
    if not known:
        return "<svg width='120' height='28'></svg>"
    low, high = min(known), max(known)
    span = (high - low) or 1.0
    width, height, pad = 120, 28, 3
    step = (width - 2 * pad) / max(1, len(values) - 1)

    def xy(index: int, value: float) -> str:
        x = pad + index * step
        y = height - pad - (value - low) / span * (height - 2 * pad)
        return f"{x:.1f},{y:.1f}"

    points = " ".join(xy(i, v) for i, v in enumerate(values)
                      if v is not None)
    dots = []
    for i, marker in enumerate(markers):
        value = values[i + 1]
        if marker is None or value is None:
            continue
        colour = "#c0392b" if marker == "regression" else "#27ae60"
        x, y = xy(i + 1, value).split(",")
        dots.append(f"<circle cx='{x}' cy='{y}' r='3' fill='{colour}'>"
                    f"<title>{marker}</title></circle>")
    return (f"<svg width='{width}' height='{height}' "
            f"viewBox='0 0 {width} {height}'>"
            f"<polyline points='{points}' fill='none' "
            f"stroke='#34495e' stroke-width='1.5'/>"
            + "".join(dots) + "</svg>")


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "&mdash;"
    return f"{value:g}"


def render_trends_html(payload: dict) -> str:
    """Self-contained single-file trend report (no network fetches)."""
    labels = [snap["label"] for snap in payload["snapshots"]]
    summary = payload["summary"]
    break_at = {entry["index"]: entry["changed"]
                for entry in payload["breaks"]}
    # Column headers link back to the underlying BENCH_*.json snapshot
    # (file paths, not URLs, so the artifact stays self-contained).
    head_cells = "".join(
        f"<th><a href=\"{_esc(snap['path'])}\">{_esc(snap['label'])}</a>"
        f"</th>" if snap.get("path") else f"<th>{_esc(snap['label'])}</th>"
        for snap in payload["snapshots"])
    rows = []
    for name, entry in sorted(payload["series"].items()):
        values, markers = entry["values"], entry["markers"]
        cells = [f"<td class='num'>{_format_value(values[0])}</td>"]
        for i, marker in enumerate(markers):
            css = f" class='num {marker}'" if marker else " class='num'"
            cells.append(f"<td{css}>{_format_value(values[i + 1])}</td>")
        badge = " <span class='gated'>gated</span>" \
            if entry["direction"] else ""
        rows.append(
            f"<tr><td class='name'>{_esc(name)}{badge}</td>"
            f"<td>{_sparkline(values, markers)}</td>"
            + "".join(cells) + "</tr>")
    break_notes = "".join(
        f"<li>between <b>{_esc(labels[index - 1])}</b> and "
        f"<b>{_esc(labels[index])}</b> the bench environment changed: "
        f"{_esc(', '.join(changed))}</li>"
        for index, changed in sorted(break_at.items()))
    breaks_html = (f"<h2>Comparability breaks</h2><ul>{break_notes}</ul>"
                   if break_notes else "")
    embedded = json.dumps(payload, sort_keys=True).replace("</", "<\\/")
    return f"""{TRENDS_HTML_MARKER} schema_version={TRENDS_SCHEMA_VERSION} -->
<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro benchmark trends</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ border: 1px solid #ddd; padding: 4px 8px; text-align: left; }}
th {{ background: #f4f6f8; }}
td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
td.name {{ font-family: ui-monospace, monospace; font-size: 12px; }}
td.regression {{ background: #fdecea; color: #c0392b; font-weight: 600; }}
td.improvement {{ background: #eafaf1; color: #1e8449; }}
.gated {{ font-size: 10px; color: #888; border: 1px solid #ccc;
          border-radius: 3px; padding: 0 3px; }}
.summary {{ color: #555; }}
</style>
</head>
<body>
<h1>Benchmark trends</h1>
<p class="summary">{summary['snapshots']} snapshots &middot;
{summary['metrics']} metrics &middot;
<b>{summary['regressions']}</b> regression step(s) and
<b>{summary['improvements']}</b> improvement step(s) past
{payload['threshold_percent']:g}%.</p>
{breaks_html}
<h2>Metric series</h2>
<table>
<tr><th>Metric</th><th>Trend</th>{head_cells}</tr>
{''.join(rows)}
</table>
<script type="application/json" id="trends-data">{embedded}</script>
</body>
</html>
"""


def write_trends_html(path: Union[str, Path], payload: dict) -> Path:
    target = Path(path)
    target.write_text(render_trends_html(payload))
    return target


def main(argv=None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trends",
        description="Aggregate BENCH_*.json snapshots into a trend "
                    "report.")
    parser.add_argument("snapshots", nargs="*", metavar="SNAPSHOT",
                        help="snapshot directories or BENCH_*.json files "
                             "in series order (default: subdirectories "
                             "of REPRO_BENCH_DIR)")
    parser.add_argument("-o", "--output", default="trends.html",
                        metavar="OUT.HTML",
                        help="trend report path (default %(default)s)")
    parser.add_argument("--json", dest="trends_json",
                        default="trends.json", metavar="OUT.JSON",
                        help="machine-readable payload path "
                             "(default %(default)s; '' skips it)")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="marker threshold in percent "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    paths = args.snapshots or discover_snapshots()
    if len(paths) < 2:
        print("trends: need at least two snapshots (pass paths or set "
              "REPRO_BENCH_DIR)", file=sys.stderr)
        return 2
    try:
        snapshots = [load_snapshot(path) for path in paths]
        payload = build_trends(snapshots,
                               threshold_percent=args.threshold)
        write_trends_html(args.output, payload)
        if args.trends_json:
            write_trends_json(args.trends_json, payload)
    except TrendsError as exc:
        print(f"trends: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"trends: cannot write output: {exc}", file=sys.stderr)
        return 2
    summary = payload["summary"]
    print(f"wrote {args.output}: {summary['snapshots']} snapshot(s), "
          f"{summary['metrics']} metric(s), {summary['regressions']} "
          f"regression(s), {summary['improvements']} improvement(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
