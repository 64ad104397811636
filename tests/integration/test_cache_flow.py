"""Integration tests for the incremental result cache.

The acceptance criteria, end to end: a warm rerun recomputes nothing,
editing one mode re-scans only its pairs and re-merges only its clique,
and the merged SDC bytes are identical cold vs warm vs
corrupted-then-quarantined — through the Python API, the CLI
(``--cache`` and the ``cache`` verb, including its exit-code contract),
and concurrent CLI processes sharing one cache root.  A scan stores its
fresh pair verdicts as one pack, so a damaged pack is quarantined once
and every verdict in it is recomputed.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.cli import main
from repro.durable import record_crc

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
def files(tmp_path, monkeypatch):
    # These runs must exit 0 and stay byte-identical; an ambient seeded
    # chaos plan (the chaos CI job's) would add EXE warnings.
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
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


def entry_files(croot, subdir):
    return sorted((croot / subdir).glob("*.json"))


def age_entries(croot):
    """Set every entry file's mtime to 2001."""
    for subdir in ("pairs", "groups"):
        for path in entry_files(croot, subdir):
            os.utime(path, (1_000_000_000, 1_000_000_000))


def tear(path):
    path.write_bytes(path.read_bytes()[:-25])
    return path


def flip_verdict(path):
    path.write_text(path.read_text().replace("true", "false", 1))
    return path


def skew_schema(path):
    entry = json.loads(path.read_text())
    entry["schema_version"] = CACHE_SCHEMA_VERSION - 1
    entry["crc"] = record_crc(entry)
    path.write_text(json.dumps(entry))
    return path


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
        for subdir in ("pairs", "groups"):
            for entry in entry_files(croot, subdir):
                tear(entry)
        # Degraded-but-correct: warm run exits 1 (CAC002 warnings), and
        # the bytes are exactly the cold run's.
        warm_metrics = tmp / "warm.json"
        assert merge_cli(netlist, paths, tmp / "warm", croot,
                         warm_metrics) == 1
        assert "CAC002" in capsys.readouterr().err
        assert sdc_bytes(tmp / "warm") == sdc_bytes(tmp / "cold")
        quarantined = list((croot / "quarantine").glob("*.json"))
        assert len(quarantined) == 3  # 1 pack of 3 verdicts + 2 groups
        assert counters(warm_metrics)["mergeability.pairs_scanned"] == 3

    @pytest.mark.parametrize("damage", [tear, flip_verdict, skew_schema])
    def test_damaged_pack_is_quarantined_once_and_recomputed(
            self, files, capsys, damage):
        tmp, netlist, paths = files
        croot = tmp / "cache"
        assert merge_cli(netlist, paths, tmp / "cold", croot) == 0
        pack, = entry_files(croot, "pairs")
        damage(pack)
        capsys.readouterr()
        warm_metrics = tmp / "warm.json"
        assert merge_cli(netlist, paths, tmp / "warm", croot,
                         warm_metrics) == 1
        assert capsys.readouterr().err.count("CAC002") == 1
        warm = counters(warm_metrics)
        assert warm["cache.quarantined"] == 1
        assert warm["mergeability.pairs_scanned"] == 3  # all of the pack
        assert warm.get("cache.pair_hits", 0) == 0
        assert warm["cache.group_hits"] == 2
        assert sdc_bytes(tmp / "warm") == sdc_bytes(tmp / "cold")
        # The rescan stored the pack afresh: the next run is clean.
        assert main(["cache", "verify", str(croot)]) == 0

    def test_pack_renamed_to_another_space_is_quarantined(self, files,
                                                          capsys):
        # A pack's key names its key space; one filed under another
        # space's prefix (here the permissive policy's) is never trusted.
        tmp, netlist, paths = files
        croot, other = tmp / "cache", tmp / "other"
        assert merge_cli(netlist, paths, tmp / "cold", croot) == 0
        assert merge_cli(netlist, paths, tmp / "cold-permissive", other,
                         policy="permissive") == 0
        pack, = entry_files(croot, "pairs")
        other_space = entry_files(other, "pairs")[0].stem.split("-")[0]
        assert pack.stem.split("-")[0] != other_space
        pack.rename(pack.with_name(
            f"{other_space}-{pack.stem.split('-')[1]}.json"))
        capsys.readouterr()
        metrics = tmp / "renamed.json"
        assert merge_cli(netlist, paths, tmp / "renamed", croot, metrics,
                         policy="permissive") == 1
        assert capsys.readouterr().err.count("CAC002") == 1
        renamed = counters(metrics)
        assert renamed["cache.quarantined"] == 1
        assert renamed["mergeability.pairs_scanned"] == 3
        assert sdc_bytes(tmp / "renamed") \
            == sdc_bytes(tmp / "cold-permissive")

    def test_cold_and_edit_packs_both_serve_hits(self, files):
        tmp, netlist, paths = files
        croot = tmp / "cache"
        assert merge_cli(netlist, paths, tmp / "cold", croot) == 0
        paths[2].write_text(MODE_C_EDITED)
        assert merge_cli(netlist, paths, tmp / "edited", croot) == 0
        assert len(entry_files(croot, "pairs")) == 2  # 3 + 2 verdicts
        age_entries(croot)
        warm_metrics = tmp / "warm.json"
        assert merge_cli(netlist, paths, tmp / "warm", croot,
                         warm_metrics) == 0
        warm = counters(warm_metrics)
        # A-B from the cold pack, A-C and B-C from the edit's pack.
        assert warm["cache.pair_hits"] == 3
        assert warm.get("mergeability.pairs_scanned", 0) == 0
        assert all(path.stat().st_mtime > 1_000_000_000
                   for path in entry_files(croot, "pairs"))
        assert sdc_bytes(tmp / "warm") == sdc_bytes(tmp / "edited")

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
        # One pack and the newer of the two groups stay.
        assert "evicted 1" in capsys.readouterr().out
        assert main(["cache", "clear", str(croot)]) == 0
        assert main(["cache", "stats", str(croot)]) == 0
        assert "pair_entries: 0" in capsys.readouterr().out

    def test_verify_then_prune_by_age_evicts_stale_entries(
            self, files, tmp_path, capsys):
        # A sweep is not a use: it must not refresh the last-seen time
        # that prune --max-age evicts by.
        croot = self.seeded_root(files, tmp_path)
        age_entries(croot)
        assert main(["cache", "verify", str(croot)]) == 0
        assert main(["cache", "prune", str(croot), "--max-age",
                     "3600"]) == 0
        scanned, evicted = map(int, re.search(
            r"scanned (\d+) entr\(ies\), evicted (\d+)",
            capsys.readouterr().out).groups())
        assert evicted == scanned == 3  # one pack and two groups

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
                [sys.executable, "-m", "repro.cli",
                 "--metrics", str(tmp_path / f"run{i}.json"),
                 "merge", str(netlist)]
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
        # Each run writes what it missed: the one pack when its scan
        # missed (all three verdicts or none: they are one pack) and
        # each group it missed.  A writer that finds the other's
        # identical pack or group already in place skips its write.
        runs = [counters(tmp_path / f"run{i}.json") for i in (1, 2)]
        runs.append(warm)
        for run in runs:
            misses = run.get("cache.pair_misses", 0)
            assert misses in (0, 3)
            assert run.get("cache.stores", 0) \
                + run.get("cache.skipped_writes", 0) \
                == (misses > 0) + run.get("cache.group_misses", 0)
        assert any(run.get("cache.pair_misses") for run in runs[:2])
        # The runs folded their store counts into the persistent stats.
        assert ResultCache.open(croot).stats()["stores"] \
            == sum(run.get("cache.stores", 0) for run in runs)
