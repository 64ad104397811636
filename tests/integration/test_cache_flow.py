"""Integration tests for the incremental result cache.

The acceptance criteria, end to end: a warm rerun recomputes nothing,
editing one mode re-scans only its pairs and re-merges only its clique,
and the merged SDC bytes are identical cold vs warm vs
corrupted-then-quarantined — through the Python API, the CLI
(``--cache`` and the ``cache`` verb, including its exit-code contract),
and concurrent CLI processes sharing one cache root.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import ResultCache
from repro.cli import main

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
set_clock_uncertainty 0.1 [get_clocks CK]
set_false_path -to [get_pins stage2/D]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
set_clock_uncertainty 0.1 [get_clocks CK]
set_false_path -from [get_pins stage1/CP]
"""

# An out-of-tolerance clock uncertainty: C pairs with nobody, so the
# groups are {A, B} and {C} — editing C must leave the A/B work cached.
MODE_C = """
create_clock -name CK -period 10 [get_ports clk]
set_clock_uncertainty 5 [get_clocks CK]
"""

MODE_C_EDITED = """
create_clock -name CK -period 10 [get_ports clk]
set_clock_uncertainty 6 [get_clocks CK]
"""


@pytest.fixture
def files(tmp_path):
    netlist = tmp_path / "chip.v"
    netlist.write_text(NETLIST_V)
    paths = []
    for name, text in (("modeA", MODE_A), ("modeB", MODE_B),
                       ("modeC", MODE_C)):
        path = tmp_path / f"{name}.sdc"
        path.write_text(text)
        paths.append(path)
    return tmp_path, netlist, paths


def merge_cli(netlist, paths, out, cache, metrics=None, policy=None):
    argv = []
    if metrics is not None:
        argv += ["--metrics", str(metrics)]
    if policy is not None:
        argv += ["--policy", policy]
    argv += ["merge", str(netlist)] + [str(p) for p in paths]
    argv += ["-o", str(out), "--cache", str(cache)]
    return main(argv)


def sdc_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*.sdc"))}


def counters(metrics_path):
    return json.loads(metrics_path.read_text())["counters"]


class TestColdWarmIdentical:
    def test_warm_rerun_recomputes_nothing(self, files, tmp_path):
        tmp, netlist, paths = files
        croot = tmp / "cache"
        cold_metrics = tmp / "cold.json"
        warm_metrics = tmp / "warm.json"
        assert merge_cli(netlist, paths, tmp / "cold", croot,
                         cold_metrics) == 0
        assert merge_cli(netlist, paths, tmp / "warm", croot,
                         warm_metrics) == 0
        assert merge_cli(netlist, paths, tmp / "plain", tmp / "nope") == 0

        cold = counters(cold_metrics)
        warm = counters(warm_metrics)
        assert cold["mergeability.pairs_scanned"] == 3
        assert warm.get("mergeability.pairs_scanned", 0) == 0
        assert warm["cache.pair_hits"] == 3
        assert warm["cache.group_hits"] == 2  # {A,B} and {C}
        assert "cache.quarantined" not in warm

        reference = sdc_bytes(tmp / "cold")
        assert reference  # at least the merged A+B mode
        assert sdc_bytes(tmp / "warm") == reference
        assert sdc_bytes(tmp / "plain") == reference

    def test_one_mode_edit_invalidates_only_its_slice(self, files,
                                                      tmp_path):
        tmp, netlist, paths = files
        croot = tmp / "cache"
        assert merge_cli(netlist, paths, tmp / "cold", croot) == 0
        paths[2].write_text(MODE_C_EDITED)
        edited_metrics = tmp / "edited.json"
        assert merge_cli(netlist, paths, tmp / "edited", croot,
                         edited_metrics) == 0
        edited = counters(edited_metrics)
        # Only C's two pairs re-scan; A/B's pair and group replay.
        assert edited["mergeability.pairs_scanned"] == 2
        assert edited["cache.pair_hits"] == 1
        assert edited["cache.group_hits"] == 1
        # And the output matches an uncached run of the edited inputs.
        assert merge_cli(netlist, paths, tmp / "plain", tmp / "nope") == 0
        assert sdc_bytes(tmp / "edited") == sdc_bytes(tmp / "plain")

    def test_corrupted_store_quarantines_and_matches_cold(self, files,
                                                          capsys):
        tmp, netlist, paths = files
        croot = tmp / "cache"
        assert merge_cli(netlist, paths, tmp / "cold", croot) == 0
        for entry in croot.rglob("*.json"):
            if entry.parent.name in ("pairs", "groups"):
                entry.write_bytes(entry.read_bytes()[:-25])
        # Degraded-but-correct: warm run exits 1 (CAC002 warnings), and
        # the bytes are exactly the cold run's.
        assert merge_cli(netlist, paths, tmp / "warm", croot) == 1
        assert "CAC002" in capsys.readouterr().err
        assert sdc_bytes(tmp / "warm") == sdc_bytes(tmp / "cold")
        quarantined = list((croot / "quarantine").glob("*.json"))
        assert len(quarantined) == 5  # 3 pairs + 2 groups

    def test_leftover_lock_file_blocks_nothing(self, files, capsys):
        # Stores take no lock, so a ``cache.lock`` naming a *live*
        # process (a killed run whose pid the next run reuses, as PID 1
        # in a container does) neither delays nor skips a store.
        tmp, netlist, paths = files
        croot = tmp / "cache"
        croot.mkdir()
        sleeper = subprocess.Popen([sys.executable, "-c",
                                    "import time; time.sleep(60)"])
        try:
            (croot / "cache.lock").write_text(json.dumps(
                {"pid": sleeper.pid, "boot_id": ""}))
            assert merge_cli(netlist, paths, tmp / "out", croot) == 0
        finally:
            sleeper.kill()
            sleeper.wait()
        assert "CAC" not in capsys.readouterr().err
        stats = ResultCache.open(croot).stats()
        assert (stats["pair_entries"], stats["group_entries"]) == (3, 2)


class TestCacheVerb:
    def seeded_root(self, files, tmp):
        _tmp, netlist, paths = files
        croot = tmp / "cache"
        assert merge_cli(netlist, paths, tmp / "out", croot) == 0
        return croot

    def test_stats_exit_zero(self, files, tmp_path, capsys):
        croot = self.seeded_root(files, tmp_path)
        assert main(["cache", "stats", str(croot)]) == 0
        out = capsys.readouterr().out
        assert "pair_entries: 3" in out
        assert "group_entries: 2" in out

    def test_verify_clean_exits_zero_corrupt_exits_one(self, files,
                                                       tmp_path, capsys):
        croot = self.seeded_root(files, tmp_path)
        assert main(["cache", "verify", str(croot)]) == 0
        victim = next((croot / "groups").glob("*.json"))
        victim.write_text("garbage")
        assert main(["cache", "verify", str(croot)]) == 1
        assert "quarantined 1" in capsys.readouterr().out
        # The sweep healed the store: a rerun is clean again.
        assert main(["cache", "verify", str(croot)]) == 0

    def test_prune_and_clear_exit_zero(self, files, tmp_path, capsys):
        croot = self.seeded_root(files, tmp_path)
        assert main(["cache", "prune", str(croot), "--keep", "1"]) == 0
        assert "evicted 3" in capsys.readouterr().out
        assert main(["cache", "clear", str(croot)]) == 0
        assert main(["cache", "stats", str(croot)]) == 0
        assert "pair_entries: 0" in capsys.readouterr().out

    def test_unusable_root_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        assert main(["cache", "stats", str(blocker)]) == 2
        assert "unusable" in capsys.readouterr().err


class TestSharedCacheRoot:
    def test_concurrent_and_warm_runs_share_one_root(self, files,
                                                     tmp_path):
        import repro

        tmp, netlist, paths = files
        croot = tmp_path / "shared-cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        env.pop("REPRO_CHAOS", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "merge", str(netlist)]
                + [str(p) for p in paths]
                + ["-o", str(tmp_path / f"run{i}"), "--cache", str(croot)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for i in (1, 2)]
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
        merged = sdc_bytes(tmp_path / "run1")
        assert merged and sdc_bytes(tmp_path / "run2") == merged
        # A third run against the same root is fully warm and identical.
        warm_metrics = tmp_path / "warm.json"
        assert merge_cli(netlist, paths, tmp_path / "warm", croot,
                         warm_metrics) == 0
        warm = counters(warm_metrics)
        assert warm.get("mergeability.pairs_scanned", 0) == 0
        assert warm["cache.group_hits"] == 2
        assert sdc_bytes(tmp_path / "warm") == merged
        # The runs folded their store counts into the persistent stats.
        assert ResultCache.open(croot).stats()["stores"] >= 5
