"""Crash-safe incremental result cache (content-addressed, self-healing).

The paper's value proposition is cutting sign-off cost when mode sets
*evolve*; this module makes repeat runs pay only for what changed.  A
:class:`ResultCache` is a persistent content-addressed store shared by
CLI runs (``--cache DIR``) that memoizes the two expensive products of
a merge run:

* **pair verdicts** — the mergeability scan's mock-merge result for one
  unordered mode pair, keyed by the two modes' content fingerprints;
* **group results** — the serialized :class:`~repro.core.mergeability.GroupOutcome`
  list of one analysis group (:func:`serialize_outcome`, whose SDC text
  plus report record round-trips byte-identically), keyed by the sorted
  member fingerprints.

Every key mixes the netlist fingerprint, the result-affecting merge
options (:meth:`~repro.core.merger.MergeOptions.result_fingerprint`)
and the member modes' canonical SDC text — so editing one mode
re-scans only its pairs and re-merges only its clique, and a
semantically identical rewrite (comments, whitespace) still hits.

The cache is also the resume mechanism: ``merge_all`` stores each group
as soon as it flushes it, so a run killed mid-flight keeps every
finished group, and rerunning it against the same root replays them
(``CAC006``) and recomputes only the rest.

Robustness contract (the headline):

* every entry is one JSON file carrying a schema version and a
  self-checksum (:func:`~repro.durable.record_crc`), written with
  :func:`~repro.durable.write_atomic` — temp file, ``fsync``,
  ``os.replace``, directory ``fsync`` — so a torn write can never
  shadow good bytes with garbage that parses;
* every read re-verifies kind/version/key/crc; any mismatch moves the
  entry to ``<root>/quarantine/`` (``CAC002``, ``cache.quarantined``)
  and the caller recomputes — a fully corrupted or version-skewed store
  degrades to an uncached run, never a crash and never a byte different
  from cold;
* writes go through an advisory file lock with stale-owner detection
  (owner pid + boot-id probe): a lock left by a ``kill -9``'d process
  is reclaimed (``CAC003``), a lock held by a *live* process degrades
  this run to skipping its writes after a bounded wait (``CAC004``) —
  reads never need the lock (atomic renames make them safe);
* a failing disk (``ENOSPC``/``OSError``) records ``CAC005`` per write
  and, after a few failures, disables the cache for the rest of the run
  (``CAC001`` "cache disabled, running uncached") — results are always
  recomputed correctly, just not persisted.

Deterministic chaos (``REPRO_CHAOS``) drives the degradation paths in
CI: ``cache-corrupt`` (a bad-crc entry lands on disk), ``cache-torn``
(a truncated entry lands on disk, as if the writer died mid-write) and
``cache-lockhold`` (the advisory lock behaves held by a live process).
These kinds are ignored by the execution engine's
:meth:`~repro.exec.chaos.ChaosPlan.strike`; the cache applies them at
its own ``cache:store:*`` / ``cache:lock`` strike points.

Maintenance (``repro-merge cache <action> ROOT``): :meth:`ResultCache.stats`,
:meth:`ResultCache.verify` (full integrity sweep), :meth:`ResultCache.prune`
(last-seen eviction — hits touch the entry's mtime, identical re-stores
are skipped but touched) and :meth:`ResultCache.clear`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.diagnostics import Diagnostic, DiagnosticCollector, Severity
from repro.durable import record_crc, write_atomic
from repro.exec.chaos import CACHE_FAULT_KINDS, ChaosPlan
from repro.netlist.netlist import Netlist
from repro.obs.context import current
from repro.sdc.mode import Mode
from repro.sdc.parser import parse_mode
from repro.sdc.writer import write_mode

#: Version of the cache entry layout.  Bump on any incompatible change;
#: entries with a different version are quarantined, never guessed at.
CACHE_SCHEMA_VERSION = 1

#: ``kind`` field of every entry file.
CACHE_KIND = "repro-cache-entry"

#: ``kind`` field of the persistent stats file.
STATS_KIND = "repro-cache-stats"

#: The two entry spaces and their subdirectories.
SPACES = ("pair", "group")
_SPACE_DIRS = {"pair": "pairs", "group": "groups"}

#: Advisory write-lock file name inside the cache root.
LOCK_NAME = "cache.lock"

#: Age after which an empty lock file counts as a dead writer's.
EMPTY_LOCK_GRACE_SECONDS = 1.0


def content_hash(*parts: str) -> str:
    """Stable hex digest of any number of text fragments."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "replace"))
        digest.update(b"\x00")
    return digest.hexdigest()


def netlist_fingerprint(netlist: Netlist) -> str:
    """Content hash of a netlist via its canonical Verilog emission."""
    from repro.netlist.verilog import write_verilog

    return content_hash(write_verilog(netlist))


def mode_fingerprint(mode: Mode) -> str:
    """Content hash of one mode: its name plus canonical SDC text.

    The canonical (header-free) emission means a semantically identical
    rewrite — reordered comments, whitespace — fingerprints the same,
    so cache entries survive cosmetic edits.
    """
    return content_hash(mode.name, write_mode(mode, header=False))


# ----------------------------------------------------------------------
# group-record codec
# ----------------------------------------------------------------------
def serialize_outcome(outcome) -> dict:
    """One ``GroupOutcome`` as a JSON-ready group record entry.

    Shared by the cache's group store and the parallel execution path,
    where forked workers serialize their outcomes before shipping them
    over the result pipe (a ``MergeResult`` holds a full ``Mode``; the
    SDC text + report record round-trip is the proven byte-identical
    representation).
    """
    result = outcome.result
    entry = {
        "modes": list(outcome.mode_names),
        "error": outcome.error,
        "repaired": getattr(outcome, "repaired", False),
        "result": None,
    }
    if result is not None:
        entry["result"] = {
            "name": result.merged.name,
            "sdc": write_mode(result.merged),
            "ok": result.ok,
            "runtime_seconds": result.runtime_seconds,
            "validated": result.validated,
            "validation_mismatches":
                list(result.validation_mismatches),
            "dict": result.to_dict(),
        }
    return entry


class RestoredMergeResult:
    """Duck-typed stand-in for a ``MergeResult`` loaded from a record.

    Exposes exactly the surface the reporting/CLI layer consumes:
    ``merged`` (a re-parsed :class:`Mode`), ``ok``, ``runtime_seconds``,
    ``validated``, ``validation_mismatches``, ``to_dict()`` (the stored
    record, replayed verbatim) and ``summary()``.
    """

    def __init__(self, merged: Mode, ok: bool, runtime_seconds: float,
                 validated: bool, validation_mismatches: List[str],
                 record: dict):
        self.merged = merged
        self.ok = ok
        self.runtime_seconds = runtime_seconds
        self.validated = validated
        self.validation_mismatches = list(validation_mismatches)
        self._record = record

    def to_dict(self) -> dict:
        return self._record

    def summary(self) -> str:
        return (f"merged mode {self.merged.name!r} restored from "
                f"the result cache ({len(self.merged)} constraints)")

    def __repr__(self) -> str:
        return f"RestoredMergeResult({self.merged.name!r})"


def restore_outcome(stored: dict):
    """(mode_names, result-or-None, error, repaired) from one entry."""
    result = None
    record = stored.get("result")
    if record is not None:
        result = RestoredMergeResult(
            merged=parse_mode(record["sdc"], record["name"]),
            ok=record["ok"],
            runtime_seconds=record["runtime_seconds"],
            validated=record["validated"],
            validation_mismatches=record["validation_mismatches"],
            record=record["dict"],
        )
    return (list(stored["modes"]), result, stored.get("error", ""),
            stored.get("repaired", False))


def restore_diagnostics(entry: dict) -> List[Diagnostic]:
    """The diagnostics a group record stored, rebuilt."""
    return [Diagnostic.from_dict(record)
            for record in entry.get("diagnostics", ())]


def _boot_id() -> str:
    """This boot's identity, for cross-reboot stale-lock detection."""
    try:
        return Path("/proc/sys/kernel/random/boot_id") \
            .read_text().strip()
    except OSError:
        return ""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class CacheLock:
    """Advisory file lock with stale-owner detection.

    The lock file is created with ``O_CREAT | O_EXCL`` and holds the
    owner's pid and boot id.  An owner is *stale* when its boot id
    differs from ours (the machine rebooted) or its pid no longer
    exists (``kill -9`` mid-write); stale locks are reclaimed.  An
    empty lock file is an owner between its create and its payload
    write — live — until it has stayed empty for
    :data:`EMPTY_LOCK_GRACE_SECONDS`.  A live owner is waited on for
    ``timeout`` seconds, then the caller degrades (the cache skips its
    writes — never blocks the merge).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fd: Optional[int] = None
        #: how the last acquire ended: "", "acquired", "takeover",
        #: "contended"
        self.last_outcome = ""

    def _try_acquire(self) -> bool:
        payload = json.dumps({"pid": os.getpid(),
                              "boot_id": _boot_id()}) + "\n"
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.write(fd, payload.encode("utf-8"))
        self._fd = fd
        return True

    def _owner_stale(self) -> bool:
        try:
            text = self.path.read_text()
        except OSError:
            return self.path.exists()
        if not text:
            # An owner between its create and its payload write; only a
            # lock that stays empty was left by a writer killed there.
            try:
                age = time.time() - self.path.stat().st_mtime
            except OSError:
                return False
            return age > EMPTY_LOCK_GRACE_SECONDS
        try:
            owner = json.loads(text)
        except ValueError:
            return True  # torn payload: garbage from a dead writer
        pid = owner.get("pid")
        if not isinstance(pid, int):
            return True
        boot = owner.get("boot_id", "")
        ours = _boot_id()
        if boot and ours and boot != ours:
            return True
        return not _pid_alive(pid)

    def acquire(self, timeout: float = 2.0) -> bool:
        """True when the lock is held; False after a bounded wait."""
        deadline = time.monotonic() + max(0.0, timeout)
        took_over = False
        while True:
            if self._try_acquire():
                self.last_outcome = "takeover" if took_over \
                    else "acquired"
                return True
            if self._owner_stale():
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
                took_over = True
                continue
            if time.monotonic() >= deadline:
                self.last_outcome = "contended"
                return False
            time.sleep(0.02)

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            os.close(self._fd)
        except OSError:
            pass
        self._fd = None
        try:
            os.unlink(self.path)
        except OSError:
            pass


class ResultCache:
    """Persistent content-addressed store of pair verdicts and group
    results, safe to share between concurrent runs."""

    def __init__(self, root: Union[str, Path],
                 collector: Optional[DiagnosticCollector] = None,
                 chaos: Optional[ChaosPlan] = None,
                 lock_timeout: float = 2.0,
                 max_write_failures: int = 3):
        self.root = Path(root)
        self.collector = collector
        self.lock_timeout = lock_timeout
        self.max_write_failures = max_write_failures
        self._chaos = chaos
        self._chaos_counts: Dict[str, int] = {}
        self._enabled = True
        self._write_failures = 0
        self._mutex = threading.Lock()
        #: this run's tallies, independent of the context's metrics
        #: registry (benchmarks and ``cache stats`` read them directly)
        self.counters: Dict[str, int] = {
            "pair_hits": 0, "pair_misses": 0,
            "group_hits": 0, "group_misses": 0,
            "stores": 0, "skipped_writes": 0, "quarantined": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, root: Union[str, Path],
             collector: Optional[DiagnosticCollector] = None,
             chaos: Optional[ChaosPlan] = None,
             lock_timeout: float = 2.0) -> "ResultCache":
        """Open (creating if needed) a cache root; never raises.

        An unusable root — the path is a file, or not writable — yields
        a *disabled* cache (``CAC001``): the run proceeds uncached.
        """
        plan = chaos if chaos is not None else ChaosPlan.from_env()
        cache = cls(root, collector=collector, chaos=plan,
                    lock_timeout=lock_timeout)
        try:
            cache.root.mkdir(parents=True, exist_ok=True)
            probe = cache.root / ".writable"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            cache.disable(f"cache root {cache.root} is unusable: {exc}")
        return cache

    @property
    def enabled(self) -> bool:
        return self._enabled

    def disable(self, reason: str) -> None:
        """Degrade to an uncached run for the rest of this process."""
        with self._mutex:
            if not self._enabled:
                return
            self._enabled = False
        obs = current()
        obs.metrics.inc("cache.disabled")
        if self.collector is not None:
            self.collector.report(
                "CAC001",
                f"result cache disabled, running uncached: {reason}",
                severity=Severity.WARNING, source=str(self.root))
        if obs.decisions.enabled:
            obs.decisions.decide("cache.degraded", f"cache:{self.root}",
                                 verdict="disabled", evidence=[reason])
        obs.blackbox.note_state("cache", {
            "root": str(self.root), "enabled": False,
            "reason": reason[:240]})

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def space(netlist, options) -> str:
        """The key space one (netlist, merge-options) context hashes to.

        Everything that can change a verdict or a merged mode's bytes —
        except the member modes themselves — folds in here once, so
        per-pair/per-group keys only add mode fingerprints.
        """
        return content_hash("cache-space", netlist_fingerprint(netlist),
                            options.result_fingerprint())

    @staticmethod
    def pair_key(space: str, fp_a: str, fp_b: str) -> str:
        """Unordered pair key: (A, B) and (B, A) are the same entry."""
        return content_hash("pair", space, *sorted((fp_a, fp_b)))

    @staticmethod
    def group_key(space: str, fingerprints: Sequence[str]) -> str:
        """Order-free group key over the sorted member fingerprints."""
        return content_hash("group", space, *sorted(fingerprints))

    def _entry_path(self, space: str, key: str) -> Path:
        return self.root / _SPACE_DIRS[space] / f"{key}.json"

    # ------------------------------------------------------------------
    # chaos
    # ------------------------------------------------------------------
    def _cache_fault(self, strike_key: str) -> Optional[str]:
        """The cache-* fault kind scheduled at this strike point, if any.

        Attempt counters are process-local, mirroring the supervisor's
        per-key attempt numbering; only ``cache-*`` kinds apply here —
        engine kinds (crash/hang/corrupt) never fire inside the cache.
        """
        if self._chaos is None:
            return None
        with self._mutex:
            attempt = self._chaos_counts.get(strike_key, 0) + 1
            self._chaos_counts[strike_key] = attempt
        fault = self._chaos.fault_for(strike_key, attempt)
        if fault is not None and fault.kind in CACHE_FAULT_KINDS:
            return fault.kind
        return None

    # ------------------------------------------------------------------
    # entry I/O
    # ------------------------------------------------------------------
    def _entry_bytes(self, space: str, key: str, payload: dict,
                     crc: str = "") -> bytes:
        entry = {"kind": CACHE_KIND,
                 "schema_version": CACHE_SCHEMA_VERSION,
                 "space": space, "key": key, "payload": payload}
        entry["crc"] = crc or record_crc(entry)
        return (json.dumps(entry, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")

    def _load(self, space: str, key: str, label: str) -> Optional[dict]:
        """Read + integrity-verify one entry; quarantine on mismatch."""
        path = self._entry_path(space, key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        reason = ""
        entry = None
        try:
            entry = json.loads(data)
        except ValueError:
            reason = "entry is not valid JSON (torn write?)"
        if not reason:
            if not isinstance(entry, dict) \
                    or entry.get("kind") != CACHE_KIND:
                reason = "entry is not a cache record"
            elif entry.get("schema_version") != CACHE_SCHEMA_VERSION:
                reason = (f"schema version "
                          f"{entry.get('schema_version')!r}, expected "
                          f"{CACHE_SCHEMA_VERSION}")
            elif entry.get("key") != key or entry.get("space") != space:
                reason = "entry key does not match its file name"
            elif entry.get("crc") != record_crc(entry):
                reason = "checksum mismatch (corrupt entry)"
        if reason:
            self._quarantine(path, reason, label)
            return None
        try:
            os.utime(path)  # last-seen touch for prune eviction
        except OSError:
            pass
        return entry["payload"]

    def _quarantine(self, path: Path, reason: str, label: str) -> None:
        target = self.root / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        with self._mutex:
            self.counters["quarantined"] += 1
        obs = current()
        obs.metrics.inc("cache.quarantined")
        if self.collector is not None:
            self.collector.report(
                "CAC002",
                f"cache entry for {label} quarantined ({reason}); "
                f"recomputing",
                severity=Severity.WARNING, source=str(path))
        ledger = obs.decisions
        if ledger.enabled:
            ledger.decide("cache.quarantined", f"cache:{label}",
                          verdict="quarantined", evidence=[reason])

    def _store(self, space: str, key: str, payload: dict,
               label: str) -> None:
        """Atomically persist one entry (caller holds the write lock)."""
        path = self._entry_path(space, key)
        data = self._entry_bytes(space, key, payload)
        try:
            if path.exists() and path.read_bytes() == data:
                # Identical content: skip the write, refresh last-seen.
                with self._mutex:
                    self.counters["skipped_writes"] += 1
                current().metrics.inc("cache.skipped_writes")
                try:
                    os.utime(path)
                except OSError:
                    pass
                return
        except OSError:
            pass
        fault = self._cache_fault(f"cache:store:{space}")
        try:
            if fault == "cache-torn":
                # Simulate a writer dying mid-write with the *final*
                # path open: truncated bytes land where readers look.
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data[:max(1, len(data) // 2)])
                return
            if fault == "cache-corrupt":
                data = self._entry_bytes(space, key, payload, crc="0" * 16)
            write_atomic(path, data)
        except OSError as exc:
            self._write_failed(label, exc)
            return
        with self._mutex:
            self.counters["stores"] += 1
        current().metrics.inc("cache.stores")

    def _write_failed(self, label: str, exc: OSError) -> None:
        with self._mutex:
            self._write_failures += 1
            failures = self._write_failures
        current().metrics.inc("cache.write_failures")
        if self.collector is not None:
            self.collector.report(
                "CAC005",
                f"cache write for {label} failed ({exc}); the result "
                f"was computed but not cached",
                severity=Severity.WARNING, source=str(self.root))
        if failures >= self.max_write_failures:
            self.disable(f"{failures} consecutive write failure(s), "
                         f"last: {exc}")

    def _locked(self) -> "_LockScope":
        return _LockScope(self)

    # ------------------------------------------------------------------
    # pair verdicts
    # ------------------------------------------------------------------
    def lookup_pairs(self, items: Sequence[Tuple[str, str]]
                     ) -> List[Optional[Tuple[bool, str]]]:
        """Batch pair lookup: ``items`` are (key, label) tuples.

        Returns one slot per item: ``(mergeable, reason)`` on a verified
        hit, None on miss/quarantine.
        """
        if not self._enabled or not items:
            return [None] * len(items)
        obs = current()
        tracer, ledger, metrics = obs.tracer, obs.decisions, obs.metrics
        out: List[Optional[Tuple[bool, str]]] = []
        with tracer.span("cache:lookup", space="pair",
                         keys=len(items)) as span:
            hits = 0
            for key, label in items:
                payload = self._load("pair", key, label)
                if payload is None or "mergeable" not in payload:
                    out.append(None)
                    with self._mutex:
                        self.counters["pair_misses"] += 1
                    metrics.inc("cache.pair_misses")
                    if ledger.enabled:
                        ledger.decide("cache.miss", f"cache:{label}",
                                      verdict="miss",
                                      evidence=[f"key {key[:12]}"])
                    continue
                hits += 1
                out.append((bool(payload["mergeable"]),
                            str(payload.get("reason", ""))))
                with self._mutex:
                    self.counters["pair_hits"] += 1
                metrics.inc("cache.pair_hits")
                if ledger.enabled:
                    ledger.decide("cache.hit", f"cache:{label}",
                                  verdict="hit",
                                  evidence=[f"key {key[:12]}"])
            if tracer.enabled:
                span.annotate(hits=hits)
        return out

    def store_pairs(self, items: Sequence[Tuple[str, str, bool, str]]
                    ) -> None:
        """Batch pair store: ``items`` are (key, label, mergeable,
        reason); one lock acquisition for the whole batch."""
        if not self._enabled or not items:
            return
        with current().tracer.span("cache:store", space="pair",
                                   keys=len(items)):
            with self._locked() as held:
                if not held:
                    return
                for key, label, mergeable, reason in items:
                    if not self._enabled:
                        break
                    self._store("pair", key,
                                {"mergeable": bool(mergeable),
                                 "reason": str(reason)}, label)

    # ------------------------------------------------------------------
    # group results
    # ------------------------------------------------------------------
    def lookup_group(self, key: str, label: str,
                     modes: Sequence[str] = ()) -> Optional[dict]:
        """One verified group entry (``{"outcomes": [...],
        "diagnostics": [...]}``, see :func:`serialize_outcome`), or
        None."""
        if not self._enabled:
            return None
        obs = current()
        tracer, metrics, ledger = obs.tracer, obs.metrics, obs.decisions
        with tracer.span("cache:lookup", space="group",
                         key=key[:12]) as span:
            payload = self._load("group", key, label)
            if not isinstance(payload, dict) \
                    or "outcomes" not in payload:
                with self._mutex:
                    self.counters["group_misses"] += 1
                metrics.inc("cache.group_misses")
                if ledger.enabled:
                    ledger.decide("cache.miss", f"cache:{label}",
                                  verdict="miss",
                                  evidence=[f"key {key[:12]}"],
                                  modes=list(modes))
                return None
            with self._mutex:
                self.counters["group_hits"] += 1
            metrics.inc("cache.group_hits")
            if ledger.enabled:
                ledger.decide("cache.hit", f"cache:{label}",
                              verdict="hit",
                              evidence=[f"key {key[:12]}"],
                              modes=list(modes))
            if tracer.enabled:
                span.annotate(hit=True)
            return payload

    def store_group(self, key: str, label: str,
                    outcomes: Sequence[dict],
                    diagnostics: Sequence[dict]) -> None:
        if not self._enabled:
            return
        with current().tracer.span("cache:store", space="group",
                                   key=key[:12]):
            with self._locked() as held:
                if not held:
                    return
                self._store("group", key,
                            {"outcomes": list(outcomes),
                             "diagnostics": list(diagnostics)}, label)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _iter_entries(self) -> Iterator[Tuple[str, Path]]:
        for space, subdir in _SPACE_DIRS.items():
            directory = self.root / subdir
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                yield space, path

    def stats(self) -> dict:
        """Entries / bytes on disk plus cumulative hit counters."""
        entries = {"pair": 0, "group": 0}
        size = 0
        for space, path in self._iter_entries():
            entries[space] += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        quarantined = 0
        qdir = self.root / "quarantine"
        if qdir.is_dir():
            quarantined = sum(1 for _ in qdir.glob("*.json"))
        persisted = self._read_stats_file()
        return {
            "root": str(self.root),
            "pair_entries": entries["pair"],
            "group_entries": entries["group"],
            "bytes": size,
            "quarantined_entries": quarantined,
            "pair_hits": persisted.get("pair_hits", 0)
            + self.counters["pair_hits"],
            "group_hits": persisted.get("group_hits", 0)
            + self.counters["group_hits"],
            "stores": persisted.get("stores", 0)
            + self.counters["stores"],
        }

    def verify(self) -> dict:
        """Full integrity sweep; bad entries are quarantined."""
        checked = 0
        before = self.counters["quarantined"]
        for space, path in list(self._iter_entries()):
            checked += 1
            self._load(space, path.stem, f"{space}:{path.stem[:12]}")
        return {"checked": checked,
                "quarantined": self.counters["quarantined"] - before}

    def prune(self, max_age_seconds: Optional[float] = None,
              keep: Optional[int] = None) -> dict:
        """Last-seen eviction: drop entries not touched recently.

        ``max_age_seconds`` evicts entries whose mtime (refreshed on
        every hit and identical re-store) is older; ``keep`` retains
        only the N most recently seen entries per space.  With neither,
        only the quarantine directory is emptied.
        """
        evicted = 0
        scanned = 0
        with self._locked() as held:
            if not held:
                return {"scanned": 0, "evicted": 0, "locked": True}
            now = time.time()
            by_space: Dict[str, List[Tuple[float, Path]]] = {
                space: [] for space in SPACES}
            for space, path in self._iter_entries():
                scanned += 1
                try:
                    mtime = path.stat().st_mtime
                except OSError:
                    continue
                by_space[space].append((mtime, path))
            for space, entries in by_space.items():
                entries.sort(reverse=True)  # newest first
                for index, (mtime, path) in enumerate(entries):
                    stale = (max_age_seconds is not None
                             and now - mtime > max_age_seconds)
                    overflow = keep is not None and index >= keep
                    if not (stale or overflow):
                        continue
                    try:
                        path.unlink()
                        evicted += 1
                    except OSError:
                        pass
            qdir = self.root / "quarantine"
            if qdir.is_dir():
                for path in qdir.glob("*.json"):
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return {"scanned": scanned, "evicted": evicted, "locked": False}

    def clear(self) -> dict:
        """Remove every entry (and the stats file); keeps the root."""
        removed = 0
        with self._locked() as held:
            if not held:
                return {"removed": 0, "locked": True}
            for _space, path in list(self._iter_entries()):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            qdir = self.root / "quarantine"
            if qdir.is_dir():
                for path in qdir.glob("*.json"):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            try:
                (self.root / "stats.json").unlink()
            except OSError:
                pass
        return {"removed": removed, "locked": False}

    # ------------------------------------------------------------------
    # persistent stats
    # ------------------------------------------------------------------
    def _read_stats_file(self) -> dict:
        try:
            payload = json.loads((self.root / "stats.json").read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict) \
                or payload.get("kind") != STATS_KIND:
            return {}
        return payload

    def flush_stats(self) -> None:
        """Fold this run's counters into ``<root>/stats.json``.

        Read-modify-write under the advisory lock, written atomically;
        a contended or failing flush is dropped silently — stats are
        advisory, results never depend on them.
        """
        with self._mutex:
            deltas = dict(self.counters)
            for name in self.counters:
                self.counters[name] = 0
        current().blackbox.note_state("cache", {
            "root": str(self.root), "enabled": self.enabled,
            "counters": {k: v for k, v in sorted(deltas.items()) if v}})
        if not any(deltas.values()):
            return
        with self._locked() as held:
            if not held:
                # Fold back so a later flush still reports them.
                with self._mutex:
                    for name, value in deltas.items():
                        self.counters[name] += value
                return
            stats = self._read_stats_file()
            merged = {"kind": STATS_KIND,
                      "schema_version": CACHE_SCHEMA_VERSION}
            for name in deltas:
                merged[name] = int(stats.get(name, 0)) + deltas[name]
            try:
                write_atomic(self.root / "stats.json",
                             json.dumps(merged, sort_keys=True, indent=2)
                             + "\n")
            except OSError:
                pass


class _LockScope:
    """``with cache._locked() as held:`` — False means degrade, don't
    block: the merge proceeds, this run just skips persisting."""

    def __init__(self, cache: ResultCache):
        self._cache = cache
        self._lock: Optional[CacheLock] = None

    def __enter__(self) -> bool:
        cache = self._cache
        if not cache._enabled:
            return False
        lock = CacheLock(cache.root / LOCK_NAME)
        timeout = cache.lock_timeout
        if cache._cache_fault("cache:lock") == "cache-lockhold":
            # Behave exactly as if a live process held the lock for the
            # whole bounded wait.
            lock.last_outcome = "contended"
            held = False
        else:
            try:
                held = lock.acquire(timeout)
            except OSError as exc:
                cache._write_failed("cache lock", exc)
                return False
        if held:
            self._lock = lock
            if lock.last_outcome == "takeover":
                current().metrics.inc("cache.lock_takeovers")
                if cache.collector is not None:
                    cache.collector.report(
                        "CAC003",
                        f"stale cache lock reclaimed from a dead owner "
                        f"at {lock.path}",
                        severity=Severity.INFO, source=str(cache.root))
            return True
        obs = current()
        obs.metrics.inc("cache.lock_contention")
        if cache.collector is not None:
            cache.collector.report(
                "CAC004",
                f"cache lock at {lock.path} held by a live process "
                f"after {timeout:.1f}s; skipping cache writes for "
                f"this operation",
                severity=Severity.WARNING, source=str(cache.root))
        ledger = obs.decisions
        if ledger.enabled:
            ledger.decide("cache.degraded", f"cache:{cache.root}",
                          verdict="contended",
                          evidence=[f"lock held past {timeout:.1f}s"])
        return False

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._lock is not None:
            self._lock.release()
            self._lock = None


__all__ = [
    "CACHE_KIND",
    "CACHE_SCHEMA_VERSION",
    "CacheLock",
    "RestoredMergeResult",
    "ResultCache",
    "content_hash",
    "mode_fingerprint",
    "netlist_fingerprint",
    "restore_diagnostics",
    "restore_outcome",
    "serialize_outcome",
]
