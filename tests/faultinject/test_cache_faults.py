"""Fault injection against the incremental result cache.

The cache's core invariant, asserted from every angle:

    a corrupted, torn, or unwritable cache NEVER changes the merged
    output and NEVER crashes a run — it degrades to the uncached
    pipeline, byte for byte.

Covers the chaos kinds (``cache-corrupt`` and ``cache-torn`` — inert
for the execution engine, applied only at the cache's own strike
points) and full-disk degradation of the cache (``CAC005``), through
the real CLI surface, plus one ``merge_all`` whose cache is opened from
the ambient ``REPRO_CHAOS``, as the CLI opens it.
"""

import errno

import pytest

from repro.cache import ResultCache
from repro.cli import main
from repro.core.mergeability import merge_all
from repro.diagnostics import DiagnosticCollector
from repro.exec.chaos import CACHE_FAULT_KINDS, CHAOS_ENV, ChaosPlan
from repro.netlist import read_verilog
from repro.sdc import parse_mode, write_mode

pytestmark = pytest.mark.faultinject


def _merge(netlist, modes, out, cache):
    return main(["merge", str(netlist), str(modes[0]), str(modes[1]),
                 "-o", str(out), "--cache", str(cache)])


def _bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.sdc"))}


@pytest.fixture
def reference(cli_files, monkeypatch):
    """The uncached, chaos-free output every degraded run must match."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    tmp, netlist, mode_a, mode_b = cli_files
    assert _merge(netlist, (mode_a, mode_b), tmp / "ref",
                  tmp / "ref-cache") == 0
    return _bytes(tmp / "ref")


class TestChaosKinds:
    def test_cache_corrupt_store_heals_on_warm_run(self, cli_files,
                                                   monkeypatch, capsys,
                                                   reference):
        # The cold run lands a bad-crc group entry; the warm run must
        # quarantine it (CAC002), recompute, and match the reference.
        tmp, netlist, mode_a, mode_b = cli_files
        croot = tmp / "cache"
        monkeypatch.setenv(CHAOS_ENV, "cache-corrupt@cache:store:group@1")
        assert _merge(netlist, (mode_a, mode_b), tmp / "cold", croot) == 0
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert _merge(netlist, (mode_a, mode_b), tmp / "warm", croot) == 1
        err = capsys.readouterr().err
        assert "CAC002" in err
        assert _bytes(tmp / "warm") == reference
        assert list((croot / "quarantine").glob("*.json"))

    def test_cache_torn_store_heals_on_warm_run(self, cli_files,
                                                monkeypatch, capsys,
                                                reference):
        # A torn write (crash mid-rename window) leaves half an entry at
        # the final path — unparseable, quarantined, recomputed.
        tmp, netlist, mode_a, mode_b = cli_files
        croot = tmp / "cache"
        monkeypatch.setenv(CHAOS_ENV, "cache-torn@cache:store:group@1")
        assert _merge(netlist, (mode_a, mode_b), tmp / "cold", croot) == 0
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert _merge(netlist, (mode_a, mode_b), tmp / "warm", croot) == 1
        assert "CAC002" in capsys.readouterr().err
        assert _bytes(tmp / "warm") == reference

    def test_retired_lockhold_kind_is_rejected(self, cli_files,
                                               monkeypatch, capsys):
        # The cache has no write lock left to hold: a spec naming the
        # old ``cache-lockhold`` kind is malformed like any unknown kind.
        tmp, netlist, mode_a, mode_b = cli_files
        monkeypatch.setenv(CHAOS_ENV, "cache-lockhold@cache:lock@2")
        assert _merge(netlist, (mode_a, mode_b), tmp / "out",
                      tmp / "cache") == 2
        assert "[EXE009]" in capsys.readouterr().err

    def test_seeded_chaos_never_schedules_cache_kinds(self, monkeypatch):
        # ``seed:N:p`` schedules engine faults only; the cache kinds
        # fire solely from explicit clauses, so seeded CI rows cannot
        # silently skew cache behaviour.
        plan = ChaosPlan.from_spec("seed:11:0.9")
        kinds = {fault.kind
                 for key in ("group:A+B", "scan:A+B", "cache:store:pair",
                             "cache:store:group")
                 for attempt in range(1, 4)
                 for fault in [plan.fault_for(key, attempt)]
                 if fault is not None}
        assert not (kinds & set(CACHE_FAULT_KINDS))


class TestAmbientChaos:
    """The cache opened from ``REPRO_CHAOS`` itself, as the CLI opens it,
    so that a chaos run's cache clauses strike these stores."""

    def test_cold_run_under_ambient_chaos_heals_on_warm_run(self,
                                                           cli_files):
        tmp, netlist_v, mode_a, mode_b = cli_files
        netlist = read_verilog(netlist_v.read_text())
        modes = [parse_mode(path.read_text(), path.stem)
                 for path in (mode_a, mode_b)]
        # The cold run stores one pair pack and one group entry, each on
        # its strike key's first attempt; a cache clause aimed there
        # poisons that entry.  A malformed spec raises here.
        plan = ChaosPlan.from_env()
        poisoned = 0 if plan is None else sum(
            getattr(plan.fault_for(key, 1), "kind", None)
            in CACHE_FAULT_KINDS
            for key in ("cache:store:pair", "cache:store:group"))
        root = tmp / "cache"
        merge_all(netlist, modes, cache=ResultCache.open(root))

        collector = DiagnosticCollector()
        warm = merge_all(netlist, modes, collector=collector,
                         cache=ResultCache.open(root, collector=collector,
                                                chaos=ChaosPlan()))
        codes = [d.code for d in collector.diagnostics]
        assert codes.count("CAC002") == poisoned
        assert len(list((root / "quarantine").glob("*.json"))) == poisoned
        assert _merged_sdc(warm) == _merged_sdc(merge_all(netlist, modes))


def _merged_sdc(run):
    return [write_mode(outcome.result.merged) for outcome in run.outcomes]


class TestFullDisk:
    def test_enospc_on_cache_store_degrades_to_uncached(self, cli_files,
                                                        monkeypatch,
                                                        capsys,
                                                        reference):
        # Every durable cache write fails with ENOSPC: each is reported
        # as "computed but not cached" (CAC005) and the merged bytes
        # are untouched.
        import repro.cache as cache_mod
        tmp, netlist, mode_a, mode_b = cli_files
        real_replace = cache_mod.os.replace

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))

        monkeypatch.setattr(cache_mod.os, "replace", full_disk)
        assert _merge(netlist, (mode_a, mode_b), tmp / "out",
                      tmp / "cache") == 1
        err = capsys.readouterr().err
        assert "CAC005" in err and "computed but not cached" in err
        monkeypatch.setattr(cache_mod.os, "replace", real_replace)
        assert _bytes(tmp / "out") == reference


class TestQuarantineLedger:
    def test_quarantined_entry_names_its_origin(self, cli_files, capsys,
                                                monkeypatch):
        # The quarantine file is the corrupted entry verbatim — an
        # operator can inspect exactly what was rejected and why.
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        tmp, netlist, mode_a, mode_b = cli_files
        croot = tmp / "cache"
        assert _merge(netlist, (mode_a, mode_b), tmp / "cold", croot) == 0
        victim = next((croot / "groups").glob("*.json"))
        poisoned = victim.read_bytes()[:-20] + b'"}'
        victim.write_bytes(poisoned)
        assert _merge(netlist, (mode_a, mode_b), tmp / "warm", croot) == 1
        capsys.readouterr()
        moved = list((croot / "quarantine").glob("*.json"))
        assert [p.read_bytes() for p in moved] == [poisoned]
        assert moved[0].name == victim.name
        # ... and the store self-healed: a fresh, valid entry replaced
        # the poisoned one at the original path.
        assert victim.read_bytes() != poisoned
        assert ResultCache.open(croot).verify() == {"checked": 2,
                                                    "quarantined": 0}
