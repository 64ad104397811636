"""Human-readable timing and relationship reports.

``format_relationship_table`` renders endpoint relationship rows in the
layout of the paper's Tables 1-4; ``format_slack_report`` renders STA
results like a condensed ``report_timing -summary``; ``format_path_report``
renders individual paths between two points with per-arc delays and their
exception state, ``report_timing``-style.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

from repro.timing.sta import StaResult
from repro.timing.states import RelState


def _state_set_label(states: FrozenSet[RelState]) -> str:
    return ", ".join(s.label() for s in sorted(states))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Simple fixed-width table formatter used by all reports."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    def fmt(row):
        return " | ".join(str(c).ljust(w) for c, w in zip(row, widths))
    sep = "-+-".join("-" * w for w in widths)
    lines = [fmt(headers), sep]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_relationship_table(
        rows: Mapping[Tuple[str, str, str], FrozenSet[RelState]],
        title: str = "Timing relationships") -> str:
    """Render endpoint relationship rows (Table 1 layout)."""
    body = []
    for (ep, lc, cc), states in sorted(rows.items()):
        body.append(["*", ep, lc, cc, _state_set_label(states)])
    table = format_table(
        ["Startpoint", "Endpoint", "Launch clock", "Capture clock", "State"],
        body)
    return f"{title}\n{table}"


def format_comparison_table(
        comparison_rows: Sequence[Mapping[str, str]],
        title: str = "Timing relationship comparison") -> str:
    """Render pass-1/2/3 comparison rows (Tables 2-4 layout).

    Each row mapping should contain the columns it wants printed; column
    order follows the paper: Start point, Through, End point, Launch clock,
    Capture clock, Individual mode state, Merged mode state, Result.
    """
    columns = ["Start point", "Through", "End point", "Launch clock",
               "Capture clock", "Individual state", "Merged state", "Result"]
    used = [c for c in columns if any(c in row for row in comparison_rows)]
    body = [[row.get(c, "") for c in used] for row in comparison_rows]
    return f"{title}\n{format_table(used, body)}"


def format_slack_report(result: StaResult, worst_n: int = 20) -> str:
    """Condensed slack report for one mode."""
    rows = sorted(result.endpoint_slacks.values(), key=lambda e: e.slack)
    body = []
    for row in rows[:worst_n]:
        body.append([
            row.endpoint,
            row.launch_clock,
            row.capture_clock,
            row.state.label(),
            f"{row.arrival:.3f}",
            f"{row.required:.3f}",
            f"{row.slack:.3f}",
        ])
    table = format_table(
        ["Endpoint", "Launch", "Capture", "State", "Arrival", "Required",
         "Slack"], body)
    summary = (f"mode {result.mode_name}: {len(result.endpoint_slacks)} "
               f"endpoints, worst slack {result.worst_slack:.3f}, "
               f"TNS {result.tns:.3f}, "
               f"runtime {result.runtime_seconds * 1000:.1f} ms")
    return f"{summary}\n{table}"


def format_path_report(bound, sp_name: str, ep_name: str,
                       delay_model=None, max_paths: int = 8) -> str:
    """``report_timing``-style listing of paths between two points.

    Enumerates up to ``max_paths`` live paths from startpoint ``sp_name``
    to endpoint ``ep_name`` (worst total delay first), with one line per
    node showing the incremental and cumulative delay, plus the path's
    exception state per clock pair.
    """
    from repro.timing.delay import resolve_model
    from repro.timing.paths import enumerate_paths, path_state

    model = resolve_model(delay_model)
    graph = bound.graph
    sp = graph.node(sp_name)
    ep = graph.node(ep_name)

    # One entry per distinct node sequence; clock pairs listed within.
    by_nodes: Dict[tuple, list] = {}
    for path in enumerate_paths(bound, sp, ep):
        by_nodes.setdefault(path.nodes, []).append(path)

    entries = []
    for nodes, paths in by_nodes.items():
        increments = []
        total = 0.0
        for src, dst in zip(nodes, nodes[1:]):
            arc = next(a for a in graph.fanout[src] if a.dst == dst)
            delay = model.arc_delay(graph, arc)
            total += delay
            increments.append((graph.name(dst), delay, total))
        entries.append((total, paths, increments))
    entries.sort(key=lambda e: -e[0])

    if not entries:
        return (f"No live paths from {sp_name} to {ep_name} "
                f"in mode {bound.mode.name!r}")

    lines = [f"Paths {sp_name} -> {ep_name} (mode {bound.mode.name!r}, "
             f"{len(entries)} found, worst first):"]
    for total, paths, increments in entries[:max_paths]:
        lines.append("")
        for path in paths:
            state = path_state(bound, path)
            lines.append(f"  launch {path.launch_clock} -> capture "
                         f"{path.capture_clock}  state {state.label()}  "
                         f"delay {total:.3f}")
        lines.append(f"    {sp_name:<28}{'':>8}{0.0:>10.3f}")
        for name, delay, cumulative in increments:
            lines.append(f"    {name:<28}{delay:>8.3f}{cumulative:>10.3f}")
    if len(entries) > max_paths:
        lines.append(f"  ... {len(entries) - max_paths} more paths")
    return "\n".join(lines)
