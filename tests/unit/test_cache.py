"""Unit tests for the crash-safe result cache (``repro.cache``).

Every degradation path is exercised directly at the store layer:
integrity quarantine (corrupt / torn / version-skewed / misfiled
entries, pair packs included), ENOSPC write degradation, and the
deterministic ``cache-*`` chaos kinds.  Pair verdicts live in packs,
one per ``store_pairs`` call: a lookup answers from every pack of its
key space and touches only the packs that served a hit, so ``prune``
evicts a pack none of whose verdicts was hit lately.  Stores take no lock, so concurrent processes sharing one
root are tested too: every entry they write verifies, a leftover lock
file blocks nothing, and the ``stats.json`` fold (the one locked
read-modify-write) loses no process's counters.  The invariant
throughout: a damaged or unusable cache changes *performance*, never
results and never bytes.
The content hashes that key every entry and the group-record codec
that replays a cached group byte-identically are tested here too.
"""

import errno
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.cache import (
    CACHE_KIND,
    CACHE_SCHEMA_VERSION,
    MAX_WRITE_FAILURES,
    ResultCache,
    content_hash,
    mode_fingerprint,
    netlist_fingerprint,
    restore_diagnostics,
    restore_outcome,
    serialize_outcome,
)
from repro.core import merge_all, merge_modes
from repro.core.merger import MergeOptions
from repro.diagnostics import Diagnostic, DiagnosticCollector, Severity
from repro.durable import record_crc
from repro.exec.chaos import ALL_FAULT_KINDS, CACHE_FAULT_KINDS, ChaosPlan
from repro.obs.context import observing
from repro.obs.trace import Tracer
from repro.sdc import parse_mode, write_mode

MODE_A = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -to [get_pins rB/D]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
"""


def open_cache(tmp_path, **kwargs):
    kwargs.setdefault("collector", DiagnosticCollector())
    kwargs.setdefault("chaos", ChaosPlan())  # inert: no REPRO_CHAOS pickup
    cache = ResultCache.open(tmp_path / "cache", **kwargs)
    assert cache.enabled
    return cache


def codes(cache):
    return [d.code for d in cache.collector.diagnostics]


def pipeline_modes():
    return [parse_mode(MODE_A, "A"), parse_mode(MODE_B, "B")]


class TestContentHash:
    def test_stable(self):
        assert content_hash("a", "b") == content_hash("a", "b")

    def test_order_and_boundaries_matter(self):
        assert content_hash("a", "b") != content_hash("b", "a")
        assert content_hash("ab", "c") != content_hash("a", "bc")

    def test_netlist_fingerprint_tracks_content(self, pipeline_netlist,
                                                reconvergent_netlist):
        assert netlist_fingerprint(pipeline_netlist) == \
            netlist_fingerprint(pipeline_netlist)
        assert netlist_fingerprint(pipeline_netlist) != \
            netlist_fingerprint(reconvergent_netlist)


class TestSpace:
    def test_sensitive_to_options(self, pipeline_netlist):
        assert ResultCache.space(pipeline_netlist, MergeOptions()) != \
            ResultCache.space(pipeline_netlist,
                              MergeOptions(budget_seconds=5.0))

    def test_group_key_stable_across_reparses(self, pipeline_netlist):
        space = ResultCache.space(pipeline_netlist, MergeOptions())

        def key():
            return ResultCache.group_key(
                space, [mode_fingerprint(m) for m in pipeline_modes()])

        assert key() == key()

    def test_group_key_sensitive_to_mode_text(self, pipeline_netlist):
        space = ResultCache.space(pipeline_netlist, MergeOptions())
        edited = [parse_mode(MODE_A + "set_false_path -from rA/CP\n", "A"),
                  parse_mode(MODE_B, "B")]
        assert ResultCache.group_key(
            space, [mode_fingerprint(m) for m in pipeline_modes()]) != \
            ResultCache.group_key(
                space, [mode_fingerprint(m) for m in edited])


class TestOutcomeCodec:
    def test_outcome_round_trips_byte_identically(self, pipeline_netlist):
        result = merge_modes(pipeline_netlist, pipeline_modes())

        class Outcome:
            mode_names = ["A", "B"]
            error = ""
            repaired = False

        Outcome.result = result
        diag = Diagnostic(code="SGN003", message="m",
                          severity=Severity.WARNING, source="A")
        # Through JSON, as a cache entry stores it.
        entry = json.loads(json.dumps({
            "outcomes": [serialize_outcome(Outcome())],
            "diagnostics": [diag.to_dict()]}))
        names, restored, error, repaired = \
            restore_outcome(entry["outcomes"][0])
        assert names == ["A", "B"]
        assert error == ""
        assert not repaired
        assert restored.ok
        assert restored.validated
        assert write_mode(restored.merged) == write_mode(result.merged)
        assert restored.to_dict() == result.to_dict()
        assert restore_diagnostics(entry) == [diag]


class TestMergeAllResume:
    def test_second_run_restores_and_matches(self, pipeline_netlist,
                                             tmp_path):
        first = merge_all(pipeline_netlist, pipeline_modes(),
                          MergeOptions(), cache=open_cache(tmp_path))
        assert first.restored_count == 0

        resumed = merge_all(pipeline_netlist, pipeline_modes(),
                            MergeOptions(), cache=open_cache(tmp_path))
        assert resumed.restored_count == len(resumed.outcomes) == 1
        assert any(d.code == "CAC006" for d in resumed.diagnostics)
        assert write_mode(resumed.outcomes[0].result.merged) == \
            write_mode(first.outcomes[0].result.merged)
        assert resumed.to_dict()["groups"][0]["restored"]

    def test_changed_mode_invalidates_only_its_group(self, pipeline_netlist,
                                                     tmp_path):
        merge_all(pipeline_netlist, pipeline_modes(), MergeOptions(),
                  cache=open_cache(tmp_path))
        edited = [parse_mode(MODE_A + "set_false_path -from rA/CP\n", "A"),
                  parse_mode(MODE_B, "B")]
        resumed = merge_all(pipeline_netlist, edited, MergeOptions(),
                            cache=open_cache(tmp_path))
        assert resumed.restored_count == 0


class TestKeys:
    def test_pair_key_is_unordered(self):
        assert ResultCache.pair_key("s", "a", "b") \
            == ResultCache.pair_key("s", "b", "a")

    def test_group_key_is_order_free(self):
        assert ResultCache.group_key("s", ["a", "b", "c"]) \
            == ResultCache.group_key("s", ["c", "a", "b"])

    def test_mode_fingerprint_ignores_formatting(self):
        a = parse_mode("create_clock -name CK -period 10 [get_ports clk]\n",
                       "m")
        b = parse_mode("# a comment\n"
                       "create_clock   -name CK  -period 10.0 "
                       "[get_ports clk]\n", "m")
        assert mode_fingerprint(a) == mode_fingerprint(b)

    def test_mode_fingerprint_sees_value_changes(self):
        a = parse_mode("create_clock -name CK -period 10 [get_ports clk]\n",
                       "m")
        b = parse_mode("create_clock -name CK -period 11 [get_ports clk]\n",
                       "m")
        assert mode_fingerprint(a) != mode_fingerprint(b)


def pack_paths(cache, space="s"):
    return sorted((cache.root / "pairs").glob(f"{space}-*.json"))


def age(path, seconds=1_000_000_000):
    """Set ``path``'s mtime to ``seconds`` (2001 by default)."""
    os.utime(path, (seconds, seconds))


class TestRoundTrip:
    def test_pair_store_and_lookup(self, tmp_path):
        cache = open_cache(tmp_path)
        key = ResultCache.pair_key("s", "fa", "fb")
        cache.store_pairs("s", [(key, False, "blocked clock")])
        assert cache.lookup_pairs("s", [(key, "pair:A,B")]) \
            == [(False, "blocked clock")]
        assert cache.counters["stores"] == 1
        assert cache.counters["pair_hits"] == 1

    def test_group_store_and_lookup(self, tmp_path):
        cache = open_cache(tmp_path)
        key = ResultCache.group_key("s", ["fa", "fb"])
        payload = {"outcomes": [{"mode_names": ["A", "B"]}],
                   "diagnostics": []}
        cache.store_group(key, "group:A+B", payload["outcomes"],
                          payload["diagnostics"])
        assert cache.lookup_group(key, "group:A+B") == payload

    def test_miss_returns_none(self, tmp_path):
        cache = open_cache(tmp_path)
        assert cache.lookup_pairs("s", [("nope", "pair:A,B")]) == [None]
        assert cache.lookup_group("nope", "group:A+B") is None
        assert cache.counters["pair_misses"] == 1
        assert cache.counters["group_misses"] == 1

    def test_identical_restore_is_skipped_not_rewritten(self, tmp_path):
        cache = open_cache(tmp_path)
        key = ResultCache.pair_key("s", "fa", "fb")
        cache.store_pairs("s", [(key, True, "")])
        cache.store_pairs("s", [(key, True, "")])
        assert cache.counters["stores"] == 1
        assert cache.counters["skipped_writes"] == 1
        assert len(pack_paths(cache)) == 1

    def test_entries_carry_schema_version_and_valid_crc(self, tmp_path):
        cache = open_cache(tmp_path)
        key = ResultCache.pair_key("s", "fa", "fb")
        cache.store_pairs("s", [(key, True, "")])
        path, = pack_paths(cache)
        entry = json.loads(path.read_text())
        assert entry["kind"] == CACHE_KIND
        assert entry["schema_version"] == CACHE_SCHEMA_VERSION == 3
        assert entry["space"] == "pair"
        assert entry["key"] == path.stem
        assert entry["crc"] == record_crc(entry)
        # The pack is named by the hash of its canonical verdict map.
        verdicts = {key: [True, ""]}
        assert entry["payload"] == {"verdicts": verdicts}
        assert path.stem == "s-" + content_hash(
            json.dumps(verdicts, sort_keys=True, separators=(",", ":")))


class TestPacks:
    """One pack per ``store_pairs`` call; lookups read them all."""

    def test_one_store_is_one_pack(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.store_pairs("s", [(f"k{n}", n % 2 == 0, f"r{n}")
                                for n in range(50)])
        assert len(pack_paths(cache)) == 1
        assert cache.counters["stores"] == 1
        assert cache.stats()["pair_entries"] == 50
        assert cache.lookup_pairs("s", [("k7", "pair:A,B7"),
                                        ("k8", "pair:A,B8")]) \
            == [(False, "r7"), (True, "r8")]

    def test_cold_pack_and_edit_pack_both_serve_hits(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.store_pairs("s", [("ab", True, ""), ("ac", False, "x")])
        # The edit re-scans only its own pairs: a second, smaller pack.
        cache.store_pairs("s", [("ac2", True, ""), ("bc2", True, "")])
        assert len(pack_paths(cache)) == 2
        tracer = Tracer()
        with observing(tracer=tracer):
            assert cache.lookup_pairs("s", [("ab", "pair:A,B"),
                                            ("ac2", "pair:A,C"),
                                            ("bc2", "pair:B,C")]) \
                == [(True, ""), (True, ""), (True, "")]
        assert cache.counters["pair_hits"] == 3
        span, = tracer.find("cache:lookup")
        assert (span.attrs["packs"], span.attrs["hits"]) == (2, 3)

    def test_other_spaces_packs_are_not_read(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.store_pairs("s", [("k", True, "")])
        assert cache.lookup_pairs("t", [("k", "pair:A,B")]) == [None]
        assert cache.counters["quarantined"] == 0

    def test_lookup_touches_only_packs_that_served_a_hit(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.store_pairs("s", [("k1", True, "")])
        cache.store_pairs("s", [("k2", True, "")])
        for path in pack_paths(cache):
            age(path)
        assert cache.lookup_pairs("s", [("k1", "pair:A,B"),
                                        ("nope", "pair:A,C")]) \
            == [(True, ""), None]
        touched = {path.name: path.stat().st_mtime > 1_000_000_000
                   for path in pack_paths(cache)}
        assert sorted(touched.values()) == [False, True]
        served = json.loads(
            next(p for p in pack_paths(cache)
                 if touched[p.name]).read_text())
        assert "k1" in served["payload"]["verdicts"]

    def test_prune_by_age_evicts_a_pack_no_hit_touched(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.store_pairs("s", [("k1", True, "")])
        cache.store_pairs("s", [("k2", True, ""), ("k3", True, "")])
        for path in pack_paths(cache):
            age(path)
        cache.lookup_pairs("s", [("k1", "pair:A,B")])
        assert cache.prune(max_age_seconds=3600) == {"scanned": 2,
                                                      "evicted": 1}
        assert cache.lookup_pairs("s", [("k1", "pair:A,B"),
                                        ("k2", "pair:A,C")]) \
            == [(True, ""), None]

    def test_verify_touches_no_entry(self, tmp_path):
        # A sweep is not a use: entries it verifies stay as stale as
        # they were, so a later prune by age still evicts them.
        cache = open_cache(tmp_path)
        cache.store_pairs("s", [("k", True, "")])
        cache.store_group("g", "group:A+B", [{"mode_names": ["A", "B"]}],
                          [])
        for _space, path in cache._iter_entries():
            age(path)
        assert cache.verify() == {"checked": 2, "quarantined": 0}
        assert cache.prune(max_age_seconds=3600) == {"scanned": 2,
                                                      "evicted": 2}

    def test_group_hit_touches_its_entry(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.store_group("g", "group:A+B", [{"mode_names": ["A", "B"]}],
                          [])
        path = cache.root / "groups" / "g.json"
        age(path)
        assert cache.lookup_group("g", "group:A+B") is not None
        assert path.stat().st_mtime > 1_000_000_000

    def test_stats_counts_zero_for_an_unparsable_pack(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.store_pairs("s", [("k1", True, ""), ("k2", True, "")])
        cache.store_pairs("s", [("k3", True, "")])
        assert cache.stats()["pair_entries"] == 3
        path = next(p for p in pack_paths(cache)
                    if "k3" not in p.read_text())
        path.write_text("garbage")
        assert cache.stats()["pair_entries"] == 1


class TestQuarantine:
    def store_one(self, cache):
        key = ResultCache.pair_key("s", "fa", "fb")
        other = ResultCache.pair_key("s", "fa", "fc")
        cache.store_pairs("s", [(key, True, ""), (other, False, "r")])
        path, = pack_paths(cache)
        return key, path

    def assert_quarantined(self, cache, key, path, space="s"):
        # Every verdict of the pack misses, and the pack is moved out
        # once, however many of its verdicts were asked for.
        assert cache.lookup_pairs(space, [
            (key, "pair:A,B"),
            (ResultCache.pair_key("s", "fa", "fc"), "pair:A,C")]) \
            == [None, None]
        assert not path.exists()
        assert len(list((cache.root / "quarantine").glob("*.json"))) == 1
        assert cache.counters["quarantined"] == 1
        assert codes(cache) == ["CAC002"]
        # The scan re-stores its verdicts, and the store heals.
        cache.store_pairs(space, [(key, True, "")])
        assert cache.lookup_pairs(space, [(key, "pair:A,B")]) \
            == [(True, "")]
        assert cache.counters["quarantined"] == 1

    def test_bit_flip_quarantines(self, tmp_path):
        cache = open_cache(tmp_path)
        key, path = self.store_one(cache)
        path.write_text(path.read_text().replace('true', 'false'))
        self.assert_quarantined(cache, key, path)

    def test_torn_write_quarantines(self, tmp_path):
        cache = open_cache(tmp_path)
        key, path = self.store_one(cache)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        self.assert_quarantined(cache, key, path)

    def test_schema_skew_quarantines(self, tmp_path):
        cache = open_cache(tmp_path)
        key, path = self.store_one(cache)
        entry = json.loads(path.read_text())
        entry["schema_version"] = CACHE_SCHEMA_VERSION - 1
        entry.pop("crc")
        entry["crc"] = record_crc(entry)
        path.write_text(json.dumps(entry))
        self.assert_quarantined(cache, key, path)

    def test_misfiled_entry_quarantines(self, tmp_path):
        # A valid pack renamed to another key space's prefix must not
        # be trusted: its key no longer matches its file name.
        cache = open_cache(tmp_path)
        key, path = self.store_one(cache)
        wrong = path.with_name("t" + path.name[1:])
        os.replace(path, wrong)
        self.assert_quarantined(cache, key, wrong, space="t")

    def test_old_layout_pair_file_is_never_read(self, tmp_path):
        # A schema-1 pair entry (one file per pair, named by the pair
        # key) matches no pack name: lookups miss it, verify
        # quarantines it as version-skewed.
        cache = open_cache(tmp_path)
        key = ResultCache.pair_key("s", "fa", "fb")
        entry = {"kind": CACHE_KIND, "schema_version": 1, "space": "pair",
                 "key": key,
                 "payload": {"mergeable": True, "reason": ""}}
        entry["crc"] = record_crc(entry)
        path = cache.root / "pairs" / f"{key}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(entry))
        assert cache.lookup_pairs("s", [(key, "pair:A,B")]) == [None]
        assert cache.stats()["pair_entries"] == 0
        assert cache.verify() == {"checked": 1, "quarantined": 1}
        assert "schema version 1" in cache.collector.diagnostics[0].message

    def test_verify_sweeps_and_counts(self, tmp_path):
        cache = open_cache(tmp_path)
        key, path = self.store_one(cache)
        cache.store_group(ResultCache.group_key("s", ["fa"]), "group:A",
                          [{"mode_names": ["A"]}], [])
        path.write_text("garbage")
        report = cache.verify()
        assert report == {"checked": 2, "quarantined": 1}
        # A second sweep sees only the surviving entry.
        assert cache.verify() == {"checked": 1, "quarantined": 0}


def _store_overlapping_batches(root, index, rounds):
    """One process's share of the concurrent-store test: per round, a
    batch overlapping its neighbours' (one pack) plus a group, then a
    flush."""
    cache = ResultCache.open(root, collector=DiagnosticCollector(),
                             chaos=ChaosPlan())
    totals = dict.fromkeys(cache.counters, 0)
    for round_ in range(rounds):
        first = 8 * index + 4 * round_
        cache.store_pairs("s", [(f"k{n}", n % 3 == 0, f"r{n}")
                                for n in range(first, first + 24)])
        cache.lookup_pairs("s", [(f"k{n}", f"pair:A,B{n}")
                                 for n in range(first, first + 8)])
        cache.store_group(f"g{round_}", f"group:G{round_}",
                          [{"mode_names": ["A", "B"]}], [])
        for name, value in cache.counters.items():
            totals[name] += value
        cache.flush_stats()
    codes = [d.code for d in cache.collector.diagnostics]
    Path(root, f"proc{index}.json").write_text(
        json.dumps({"totals": totals, "codes": codes}))


class TestConcurrentStores:
    """Entries are immutable and renamed into place whole, so stores
    take no lock; only the ``stats.json`` fold is serialized."""

    def test_leftover_lock_file_blocks_no_store(self, tmp_path):
        # A lock file naming a live pid (ours) is what a killed run
        # that shared its pid with the next one would leave behind.
        cache = open_cache(tmp_path)
        (cache.root / "cache.lock").write_text(json.dumps(
            {"pid": os.getpid(), "boot_id": ""}))
        cache.store_pairs("s", [("k", True, "")])
        cache.store_group("g", "group:A+B", [{"mode_names": ["A", "B"]}],
                          [])
        assert codes(cache) == []
        assert cache.counters["stores"] == 2
        assert cache.lookup_pairs("s", [("k", "pair:A,B")]) == [(True, "")]
        assert cache.lookup_group("g", "group:A+B") is not None

    def test_processes_sharing_a_root_lose_no_entry_or_count(
            self, tmp_path):
        root = tmp_path / "cache"
        procs, rounds = 4, 3
        ctx = multiprocessing.get_context("fork")
        workers = [ctx.Process(target=_store_overlapping_batches,
                               args=(root, index, rounds))
                   for index in range(procs)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        assert [worker.exitcode for worker in workers] == [0] * procs
        reports = [json.loads((root / f"proc{index}.json").read_text())
                   for index in range(procs)]
        assert all(report["codes"] == [] for report in reports)
        # Batches that start at the same key are the same pack: one
        # file per distinct batch, plus one per group.
        firsts = {8 * index + 4 * round_ for index in range(procs)
                  for round_ in range(rounds)}
        cache = open_cache(tmp_path)
        assert cache.verify() == {"checked": len(firsts) + rounds,
                                  "quarantined": 0}
        # Every key any process stored is served, with its verdict.
        last = max(firsts) + 24
        assert cache.lookup_pairs(
            "s", [(f"k{n}", f"pair:A,B{n}") for n in range(last)]) \
            == [(n % 3 == 0, f"r{n}") for n in range(last)]
        persisted = json.loads((root / "stats.json").read_text())
        for name in reports[0]["totals"]:
            assert persisted[name] == sum(report["totals"][name]
                                          for report in reports), name
        assert persisted["stores"] + persisted["skipped_writes"] \
            == procs * rounds * 2


class TestDiskFailure:
    def test_probe_unlinked_by_a_concurrent_open_keeps_the_cache(
            self, tmp_path, monkeypatch):
        # Two runs opening one root write and unlink the same probe
        # file; losing that race must not disable the cache (CAC001).
        real_write_text = Path.write_text

        def write_then_vanish(path, *args, **kwargs):
            written = real_write_text(path, *args, **kwargs)
            if path.name == ".writable":
                path.unlink()  # the other run's unlink lands first
            return written

        monkeypatch.setattr(Path, "write_text", write_then_vanish)
        collector = DiagnosticCollector()
        cache = ResultCache.open(tmp_path / "cache", collector=collector,
                                 chaos=ChaosPlan())
        assert cache.enabled
        assert collector.diagnostics == []

    def test_unusable_root_disables_not_raises(self, tmp_path):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        collector = DiagnosticCollector()
        cache = ResultCache.open(blocker, collector=collector,
                                 chaos=ChaosPlan())
        assert not cache.enabled
        assert [d.code for d in collector.diagnostics] == ["CAC001"]
        # Every surface degrades to a no-op, never an exception.
        assert cache.lookup_pairs("s", [("k", "pair:A,B")]) == [None]
        assert cache.lookup_group("k", "group:A") is None
        cache.store_pairs("s", [("k", True, "")])
        cache.store_group("k", "group:A", [], [])
        cache.flush_stats()

    def test_enospc_degrades_then_disables(self, tmp_path, monkeypatch):
        cache = open_cache(tmp_path)

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.cache.os.replace", full_disk)
        for index in range(MAX_WRITE_FAILURES):
            cache.store_pairs("s", [(f"k{index}", True, "")])
        assert not cache.enabled
        reported = codes(cache)
        assert reported.count("CAC005") == MAX_WRITE_FAILURES
        assert "CAC001" in reported
        assert cache.counters["stores"] == 0

    def test_results_unaffected_by_enospc(self, tmp_path, monkeypatch):
        cache = open_cache(tmp_path)
        monkeypatch.setattr(
            "repro.cache.os.replace",
            lambda *a, **k: (_ for _ in ()).throw(
                OSError(errno.ENOSPC, "full")))
        cache.store_pairs("s", [("k", True, "")])
        # Nothing landed, so the lookup is an honest miss — not garbage.
        assert cache.lookup_pairs("s", [("k", "pair:A,B")]) == [None]

    def test_failed_writes_leave_no_temp_files(self, tmp_path, monkeypatch):
        # A store that dies at the rename must take its temp file with
        # it: stats, verify, prune and clear never see such debris.
        cache = open_cache(tmp_path)

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.durable.os.replace", full_disk)
        cache.store_pairs("s", [("k", True, "")])
        cache.store_group("g", "group:A+B", [{"mode_names": ["A", "B"]}],
                          [])
        assert codes(cache).count("CAC005") == 2
        assert [p for p in cache.root.rglob("*") if p.is_file()] == []


class TestChaosKinds:
    def test_cache_kinds_are_registered_and_parse(self):
        for kind in CACHE_FAULT_KINDS:
            assert kind in ALL_FAULT_KINDS
            plan = ChaosPlan.from_spec(f"{kind}@cache:*@1")
            assert plan.fault_for("cache:store:pair", 1).kind == kind

    def test_engine_strike_ignores_cache_kinds(self):
        plan = ChaosPlan.from_spec("cache-corrupt@*@1")
        assert plan.strike("scan:a+b", 1) is None

    def test_cache_corrupt_fault_lands_bad_crc(self, tmp_path):
        plan = ChaosPlan.from_spec("cache-corrupt@cache:store:pair@1")
        cache = open_cache(tmp_path, chaos=plan)
        cache.store_pairs("s", [("k", True, "")])
        # The poisoned pack is detected on read and quarantined.
        assert cache.lookup_pairs("s", [("k", "pair:A,B")]) == [None]
        assert cache.counters["quarantined"] == 1
        # The next store (attempt 2) is clean; the pack heals.
        cache.store_pairs("s", [("k", True, "")])
        assert cache.lookup_pairs("s", [("k", "pair:A,B")]) == [(True, "")]

    def test_cache_torn_fault_lands_truncated_file(self, tmp_path):
        plan = ChaosPlan.from_spec("cache-torn@cache:store:pair@1")
        cache = open_cache(tmp_path, chaos=plan)
        cache.store_pairs("s", [("k", True, "")])
        path, = pack_paths(cache)
        with pytest.raises(ValueError):
            json.loads(path.read_text())
        assert cache.lookup_pairs("s", [("k", "pair:A,B")]) == [None]
        assert cache.counters["quarantined"] == 1


class TestMaintenance:
    def fill(self, tmp_path):
        cache = open_cache(tmp_path)
        for index in range(3):  # three packs of one verdict each
            cache.store_pairs("s", [(f"k{index}", True, "")])
        cache.store_group("g0", "group:A+B", [{"mode_names": ["A", "B"]}],
                          [])
        return cache

    def test_stats_counts_entries_and_persists_hits(self, tmp_path):
        cache = self.fill(tmp_path)
        cache.lookup_pairs("s", [("k0", "pair:A,B0")])
        stats = cache.stats()
        assert stats["pair_entries"] == 3
        assert stats["group_entries"] == 1
        assert stats["bytes"] > 0
        assert stats["pair_hits"] == 1
        cache.flush_stats()
        reopened = open_cache(tmp_path)
        assert reopened.stats()["pair_hits"] == 1
        assert reopened.stats()["stores"] == 4

    def test_prune_by_keep(self, tmp_path):
        cache = self.fill(tmp_path)
        report = cache.prune(keep=1)
        assert report["evicted"] == 2  # packs beyond the newest one
        assert cache.stats()["pair_entries"] == 1
        assert cache.stats()["group_entries"] == 1

    def test_prune_by_age_and_quarantine_emptied(self, tmp_path):
        cache = self.fill(tmp_path)
        path = next(p for p in pack_paths(cache) if "k0" in p.read_text())
        age(path)
        path.write_text("garbage")
        cache.lookup_pairs("s", [("k0", "pair:A,B0")])  # -> quarantine
        assert (cache.root / "quarantine" / path.name).exists()
        report = cache.prune(max_age_seconds=3600)
        assert report["evicted"] == 0  # the stale one is already gone
        assert not list((cache.root / "quarantine").glob("*.json"))

    def test_clear_removes_everything(self, tmp_path):
        cache = self.fill(tmp_path)
        cache.flush_stats()
        report = cache.clear()
        assert report["removed"] == 4
        stats = cache.stats()
        assert stats["pair_entries"] == 0
        assert stats["group_entries"] == 0
        assert stats["stores"] == 0  # stats.json removed too
        # ... but never stats.lock: a flush may hold it right now.
        assert (cache.root / "stats.lock").exists()
