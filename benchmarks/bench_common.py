"""Shared helpers for the overhead benches.

Each bench bounds one infrastructure cost that no other harness
measures (recovery parsing, the sign-off guard, observability, the
profiler, the result cache, the execution engine, the fuzz harness) and
snapshots its headline numbers with :func:`write_bench_json`.  The
paper's own outcomes are asserted by the tier-1 tests, and their times
are measured by ``perfbench/run.py``.

Snapshots record into ``BENCH_REGISTRY`` — the same
:class:`~repro.obs.metrics.MetricsRegistry` the pipeline uses — so
``BENCH_*.json`` artifacts share the pipeline's schema-versioned
metrics layout.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.workloads.designs import paper_suite
from repro.workloads.generator import Workload, generate

#: One registry for the whole bench session: :func:`write_bench_json`
#: snapshots it into ``BENCH_*.json`` files.
BENCH_REGISTRY = MetricsRegistry()

_workloads: Dict[str, Workload] = {}


def bench_meta() -> Dict[str, object]:
    """Run metadata embedded in every ``BENCH_*.json`` snapshot.

    ``bench_diff`` warns when two snapshots disagree on these, and
    ``repro.obs.trends`` marks the step as a comparability *break* —
    a "regression" across an interpreter change is suspect, not
    actionable.
    """
    return {
        "python": platform.python_version(),
        "schema_version": 1,
    }


def write_bench_json(stem: str, directory: Optional[str] = None,
                     **gauges) -> Path:
    """Write ``BENCH_<stem>.json`` in the metrics-registry schema.

    The artifact is a snapshot of :data:`BENCH_REGISTRY` plus the
    bench's own headline numbers as ``bench.<stem>.<name>`` gauges, so
    all ``BENCH_*.json`` files validate against the same schema as
    ``repro-merge --metrics`` output and diff run-to-run with
    ``python -m repro.obs.bench_diff``.  A ``bench_meta`` block
    (:func:`bench_meta`) records the run environment for the
    comparability checks in ``bench_diff`` and ``repro.obs.trends``.

    ``directory`` defaults to ``REPRO_BENCH_DIR`` (or the working
    directory) so CI can route two runs of the same bench into separate
    snapshot directories and diff them.
    """
    if directory is None:
        directory = os.environ.get("REPRO_BENCH_DIR", ".")
    for name, value in gauges.items():
        BENCH_REGISTRY.set_gauge(f"bench.{stem}.{name}", float(value))
    path = Path(directory) / f"BENCH_{stem}.json"
    record = BENCH_REGISTRY.to_dict()
    record["bench_meta"] = bench_meta()
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def get_workload(name: str) -> Workload:
    """Design ``name`` of the paper suite, generated once per session."""
    if name not in _workloads:
        _workloads[name] = generate(paper_suite()[name].spec)
    return _workloads[name]


def once(benchmark, func, *args, **kwargs):
    """Run a heavyweight benchmark exactly once (no warmup repeats)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
