"""Integration tests for parallel execution via the CLI (``--jobs``).

The engine's headline guarantee: a parallel run is *observably
indistinguishable* from a serial one — byte-identical merged SDC,
identical decision ledgers, the same span tree and the same counters —
and a run killed mid-parallel-merge resumes from its result cache (even
at a different job count) to the same bytes an uninterrupted serial run
produces.
"""

import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main

#: ``REPRO_CHAOS`` as the suite was started with, read before the
#: ``files`` fixture clears it (the chaos CI job sets a seeded plan).
AMBIENT_CHAOS = os.environ.get("REPRO_CHAOS", "")

NETLIST_V = """
module chip (clk, din, dout);
  input clk, din;
  output dout;
  wire q1, n1;
  DFF stage1 (.D(din), .CP(clk), .Q(q1));
  INV logic1 (.A(q1), .Z(n1));
  DFF stage2 (.D(n1), .CP(clk), .Q(dout));
endmodule
"""

MODE_A = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -to [get_pins stage2/D]
set_clock_uncertainty 0.1 [get_clocks CK]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -from [get_pins stage1/CP]
set_clock_uncertainty 0.1 [get_clocks CK]
"""

#: Out-of-tolerance uncertainty: never mergeable with A/B, so runs
#: always contain two analysis groups (and parallel runs two tasks).
MODE_C = """
create_clock -name CK -period 10 [get_ports clk]
set_clock_uncertainty 5 [get_clocks CK]
"""


@pytest.fixture
def files(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    netlist = tmp_path / "chip.v"
    netlist.write_text(NETLIST_V)
    paths = []
    for name, text in (("a", MODE_A), ("b", MODE_B), ("c", MODE_C)):
        path = tmp_path / f"{name}.sdc"
        path.write_text(text)
        paths.append(path)
    return tmp_path, netlist, paths


def _merge(netlist, paths, out, *extra):
    return main(list(extra) + ["merge", str(netlist)]
                + [str(p) for p in paths] + ["-o", str(out)])


def _sdc_bytes(out):
    return {p.name: p.read_bytes() for p in Path(out).glob("*.sdc")}


def _span_tree(trace_path):
    """The (span name, parent span name) multiset of a JSONL trace."""
    lines = Path(trace_path).read_text().splitlines()[1:]  # skip header
    return Counter((record["name"], record["parent"])
                   for record in map(json.loads, lines))


#: Work counters a forked worker legitimately redoes, each with why.
#: ``exec.*`` counters describe the execution itself and differ too.
REDONE_IN_WORKERS = {
    # Clock propagations are memoized in ``Netlist.derived``, and a
    # worker's memo dies with it: what one process would propagate once
    # (say a mock merge's, reused by the group merge) a worker and the
    # next one each propagate again.
    "profile.bfs_expansions",
}


def _timeless(value):
    """A JSON report without its runtime and seconds keys."""
    if isinstance(value, dict):
        return {key: _timeless(item) for key, item in value.items()
                if "runtime" not in key and "seconds" not in key}
    if isinstance(value, list):
        return [_timeless(item) for item in value]
    return value


def _work_counters(metrics_path):
    counters = json.loads(Path(metrics_path).read_text())["counters"]
    return {name: value for name, value in counters.items()
            if not name.startswith("exec.")
            and name not in REDONE_IN_WORKERS}


class TestJobsValidation:
    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_bad_jobs_is_a_usage_error(self, files, bad, capsys):
        tmp, netlist, paths = files
        with pytest.raises(SystemExit) as exc:
            _merge(netlist, paths, tmp / "out", "--jobs", bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "Traceback" not in err

    def test_jobs_accepted_by_every_verb(self, files, capsys):
        tmp, netlist, paths = files
        assert main(["--jobs", "2", "report", str(netlist)]
                    + [str(p) for p in paths]) == 0
        assert main(["--jobs", "2", "explain", str(netlist)]
                    + [str(p) for p in paths]
                    + ["--query", "kind:merge.group"]) == 0
        capsys.readouterr()


class TestParallelEquivalence:
    def test_parallel_sdc_is_byte_identical(self, files):
        tmp, netlist, paths = files
        assert _merge(netlist, paths, tmp / "serial") == 0
        assert _merge(netlist, paths, tmp / "par2", "--jobs", "2") == 0
        assert _merge(netlist, paths, tmp / "par4", "--jobs", "4") == 0
        serial = _sdc_bytes(tmp / "serial")
        assert len(serial) == 2  # merged a+b, individual c
        assert _sdc_bytes(tmp / "par2") == serial
        assert _sdc_bytes(tmp / "par4") == serial

    def test_parallel_decision_ledger_is_identical(self, files, capsys):
        tmp, netlist, paths = files
        serial_path = tmp / "serial.decisions.json"
        par_path = tmp / "par.decisions.json"
        assert _merge(netlist, paths, tmp / "serial",
                      "--explain", str(serial_path)) == 0
        assert _merge(netlist, paths, tmp / "par",
                      "--explain", str(par_path), "--jobs", "2") == 0
        capsys.readouterr()
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(par_path.read_text())
        assert serial["decisions"] == parallel["decisions"]
        assert serial["by_kind"] == parallel["by_kind"]

    def test_parallel_trace_has_the_serial_span_tree(self, files, capsys):
        tmp, netlist, paths = files
        assert _merge(netlist, paths, tmp / "serial",
                      "--trace", str(tmp / "serial.jsonl")) == 0
        assert _merge(netlist, paths, tmp / "par",
                      "--trace", str(tmp / "par.jsonl"), "--jobs", "2") == 0
        capsys.readouterr()
        serial = _span_tree(tmp / "serial.jsonl")
        # Spans recorded inside the group-merge workers.
        assert serial[("merge", "group:a+b")] == 1
        assert serial[("three_pass:pass1", "step:three_pass")] >= 1
        assert _span_tree(tmp / "par.jsonl") == serial

    def test_parallel_metrics_match_serial_counters(self, files, capsys):
        tmp, netlist, paths = files
        assert _merge(netlist, paths, tmp / "serial",
                      "--metrics", str(tmp / "serial.json")) == 0
        assert _merge(netlist, paths, tmp / "par",
                      "--metrics", str(tmp / "par.json"), "--jobs", "2") == 0
        capsys.readouterr()
        serial = _work_counters(tmp / "serial.json")
        assert serial["profile.mock_merges"] == 1  # by a scan worker
        assert _work_counters(tmp / "par.json") == serial

    def test_parallel_json_report_and_provenance_match_serial(self, files,
                                                              capsys):
        tmp, netlist, paths = files
        reports, lineage = {}, {}
        for jobs in ("1", "2"):
            out = tmp / f"jobs{jobs}"
            assert main(["--jobs", jobs, "merge", str(netlist)]
                        + [str(p) for p in paths]
                        + ["-o", str(out), "--json", "--provenance"]) == 0
            reports[jobs] = _timeless(
                json.loads((out / "merge_report.json").read_text()))
            lineage[jobs] = [line for line in
                             capsys.readouterr().out.splitlines()
                             if line.startswith("provenance ")
                             or "  <= " in line]
        assert reports["2"] == reports["1"]
        assert lineage["1"] and lineage["2"] == lineage["1"]

    def test_parallel_report_graph_is_identical(self, files, capsys):
        tmp, netlist, paths = files
        assert main(["report", str(netlist)]
                    + [str(p) for p in paths]) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "2", "report", str(netlist)]
                    + [str(p) for p in paths]) == 0
        assert capsys.readouterr().out == serial


#: Driver for the parallel kill-resume test.  Runs ``merge_all`` at
#: --jobs 2 with a result cache; merging mode "c" blocks until the a+b
#: group has landed under ``groups/``, then SIGKILLs the hosting process.
#: Pooled attempts kill only disposable workers (the supervisor retries
#: and eventually falls back in-process), so the process that finally
#: dies is the run itself — mid-flight, with exactly one group stored.
KILLED_PARALLEL_DRIVER = """\
import os, signal, sys, time
from pathlib import Path

import repro.core.mergeability as mergeability
from repro.cache import ResultCache
from repro.core.merger import MergeOptions
from repro.netlist import read_verilog
from repro.sdc import parse_mode

netlist_path, a_path, b_path, c_path, cache_root = sys.argv[1:6]
netlist = read_verilog(open(netlist_path).read())
modes = [parse_mode(open(path).read(), name)
         for path, name in zip((a_path, b_path, c_path), ("a", "b", "c"))]

real_merge = mergeability.merge_modes

def wait_for_ab_group():
    deadline = time.monotonic() + 240
    while time.monotonic() < deadline:
        if list(Path(cache_root, "groups").glob("*.json")):
            return
        time.sleep(0.05)
    raise RuntimeError("a+b never reached the cache")

def killing_merge(netlist, modes, name=None, options=None):
    if any(m.name == "c" for m in modes):
        wait_for_ab_group()
        os.kill(os.getpid(), signal.SIGKILL)
    return real_merge(netlist, modes, name=name, options=options)

mergeability.merge_modes = killing_merge
mergeability.merge_all(netlist, modes, MergeOptions(),
                       cache=ResultCache.open(cache_root), jobs=2)
"""


def _kill_parallel_run(tmp, netlist, paths, chaos=""):
    """Run ``KILLED_PARALLEL_DRIVER`` (under ``chaos``) to its SIGKILL;
    returns the environment it ran in and the cache root it left."""
    import repro

    driver = tmp / "killed_parallel_driver.py"
    driver.write_text(KILLED_PARALLEL_DRIVER)
    cache = tmp / "cache"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    proc = subprocess.run(
        [sys.executable, str(driver), str(netlist)]
        + [str(p) for p in paths] + [str(cache)],
        env=env, capture_output=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    return env, cache


class TestParallelCheckpointResume:
    def test_killed_parallel_run_resumes_at_any_job_count(self, files,
                                                          capsys):
        """kill -9 mid-parallel-merge, resume with a different --jobs:
        final outputs byte-identical to an uninterrupted serial run."""
        tmp, netlist, paths = files
        # Reference: uninterrupted serial run, no cache involved.
        assert _merge(netlist, paths, tmp / "fresh") == 0

        _env, cache = _kill_parallel_run(tmp, netlist, paths)
        # The a+b group survived the kill; c never completed.
        assert len(list((cache / "groups").glob("*.json"))) == 1

        capsys.readouterr()
        code = main(["--jobs", "3", "merge", str(netlist)]
                    + [str(p) for p in paths]
                    + ["-o", str(tmp / "resumed"), "--cache", str(cache)])
        assert code == 0
        captured = capsys.readouterr()
        assert "CAC006" in captured.err  # group {a, b} was replayed
        fresh = _sdc_bytes(tmp / "fresh")
        assert _sdc_bytes(tmp / "resumed") == fresh
        assert len(fresh) == 2

    @pytest.mark.faultinject
    def test_killed_parallel_run_resumes_under_ambient_chaos(self, files):
        """kill -9 mid-parallel-merge and resume at --jobs 3, both under
        the suite's ambient chaos: the resumed bytes equal a chaos-free
        run's, and chaos may add warnings (exit 1) but never a failure."""
        tmp, netlist, paths = files
        assert _merge(netlist, paths, tmp / "fresh") == 0

        env, cache = _kill_parallel_run(tmp, netlist, paths, AMBIENT_CHAOS)
        resumed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--jobs", "3", "merge",
             str(netlist)] + [str(p) for p in paths]
            + ["-o", str(tmp / "resumed"), "--cache", str(cache)],
            env=env, capture_output=True, timeout=300)
        stderr = resumed.stderr.decode()
        assert resumed.returncode in ((0, 1) if AMBIENT_CHAOS else (0,)), \
            stderr
        assert "CAC006" in stderr  # group {a, b} was replayed
        fresh = _sdc_bytes(tmp / "fresh")
        assert _sdc_bytes(tmp / "resumed") == fresh
        assert len(fresh) == 2
