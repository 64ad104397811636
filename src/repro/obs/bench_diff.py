"""Compare two benchmark artifacts: ``python -m repro.obs.bench_diff``.

The benchmark suite snapshots its numbers into ``BENCH_*.json`` files in
the pipeline's metrics-registry schema (``bench_common.write_bench_json``).
This module diffs two such snapshots — typically the artifact of the
previous CI run against the current one — and reports per-metric deltas::

    python -m repro.obs.bench_diff OLD.json NEW.json --threshold 25

Exit codes follow the CLI contract: 0 = within threshold, 1 = at least
one *regression* beyond the threshold, 2 = unreadable input.  A metric
regresses when it moves in its bad direction by more than
``--threshold`` percent: timing metrics (``*seconds*``, ``*runtime*``)
and diagnostic counts regress upward; everything else is reported but
never fails the diff (mode-reduction gauges legitimately move both ways
when the workload changes).  Metrics present on only one side are
reported as added/removed, never as regressions.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

#: Substrings marking a metric where *larger is worse*; only these can
#: turn a delta into a failing regression.
REGRESSION_MARKERS = ("seconds", "runtime", "diagnostics", "residuals",
                      "conflicts", "dropped")


def _flatten(record: dict) -> Dict[str, float]:
    """Scalar metrics of one BENCH_*.json snapshot: counters + gauges,
    plus histogram count/sum so distribution shifts are visible."""
    out: Dict[str, float] = {}
    for name, value in record.get("counters", {}).items():
        if isinstance(value, (int, float)):
            out[name] = float(value)
    for name, value in record.get("gauges", {}).items():
        if isinstance(value, (int, float)):
            out[name] = float(value)
    for name, hist in record.get("histograms", {}).items():
        if isinstance(hist, dict):
            for key in ("count", "sum"):
                value = hist.get(key)
                if isinstance(value, (int, float)):
                    out[f"{name}.{key}"] = float(value)
    return out


def regression_direction(name: str) -> int:
    """+1 when larger values are worse, 0 when the metric is neutral."""
    lowered = name.lower()
    return 1 if any(marker in lowered for marker in REGRESSION_MARKERS) \
        else 0


class MetricDelta:
    """One metric compared across the two snapshots."""

    __slots__ = ("name", "old", "new")

    def __init__(self, name: str, old: Optional[float],
                 new: Optional[float]):
        self.name = name
        self.old = old
        self.new = new

    @property
    def percent(self) -> Optional[float]:
        if self.old is None or self.new is None:
            return None
        if self.old == 0:
            return None if self.new == 0 else float("inf")
        return (self.new - self.old) / abs(self.old) * 100.0

    def is_regression(self, threshold_percent: float) -> bool:
        percent = self.percent
        if percent is None or regression_direction(self.name) == 0:
            return False
        return percent > threshold_percent

    def format(self) -> str:
        if self.old is None:
            return f"{self.name}: added ({self.new:g})"
        if self.new is None:
            return f"{self.name}: removed (was {self.old:g})"
        percent = self.percent
        arrow = f"{self.old:g} -> {self.new:g}"
        if percent is None:
            return f"{self.name}: {arrow}"
        return f"{self.name}: {arrow} ({percent:+.1f}%)"


def diff_bench(old: dict, new: dict) -> List[MetricDelta]:
    """Per-metric deltas between two snapshots, changed metrics first."""
    old_flat = _flatten(old)
    new_flat = _flatten(new)
    deltas = [MetricDelta(name, old_flat.get(name), new_flat.get(name))
              for name in sorted(set(old_flat) | set(new_flat))]
    deltas.sort(key=lambda d: -(abs(d.percent)
                                if d.percent not in (None, float("inf"))
                                else float("inf")
                                if d.percent == float("inf") else -1.0))
    return deltas


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench_diff",
        description="Diff two BENCH_*.json benchmark snapshots.")
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="regression threshold in percent "
                             "(default: %(default)s)")
    parser.add_argument("--all", action="store_true",
                        help="print unchanged metrics too")
    args = parser.parse_args(argv)

    records = []
    for path in (args.old, args.new):
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        if record.get("kind") != "repro-metrics":
            print(f"error: {path} kind is {record.get('kind')!r}, "
                  f"expected 'repro-metrics'", file=sys.stderr)
            return 2
        records.append(record)

    old_meta = records[0].get("bench_meta") or {}
    new_meta = records[1].get("bench_meta") or {}
    mismatched = sorted(
        f"{key}: {old_meta.get(key)!r} -> {new_meta.get(key)!r}"
        for key in set(old_meta) | set(new_meta)
        if old_meta.get(key) != new_meta.get(key))
    if mismatched:
        # Advisory only: an interpreter change makes deltas
        # suspect, but gating on it would turn every intentional
        # re-baseline into a red build.
        print("warning: bench environments differ ("
              + "; ".join(mismatched) + "); deltas may not be "
              "comparable", file=sys.stderr)

    deltas = diff_bench(records[0], records[1])
    regressions = [d for d in deltas if d.is_regression(args.threshold)]
    shown = 0
    for delta in deltas:
        changed = delta.percent not in (None, 0.0) \
            or delta.old is None or delta.new is None
        if not changed and not args.all:
            continue
        marker = "REGRESSION  " if delta in regressions else ""
        print(f"  {marker}{delta.format()}")
        shown += 1
    if not shown:
        print("  no metric changes")
    print(f"{len(deltas)} metric(s) compared, {len(regressions)} "
          f"regression(s) past {args.threshold:g}%")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
