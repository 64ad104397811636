"""Crash-safe incremental result cache (content-addressed, self-healing).

The paper's value proposition is cutting sign-off cost when mode sets
*evolve*; this module makes repeat runs pay only for what changed.  A
:class:`ResultCache` is a persistent content-addressed store shared by
CLI runs (``--cache DIR``) that memoizes the two expensive products of
a merge run:

* **pair verdicts** — the mergeability scan's mock-merge result for one
  unordered mode pair, keyed by the two modes' content fingerprints.
  One scan's fresh verdicts are stored together as one *pack*,
  ``pairs/<space>-<digest>.json`` (``<digest>`` hashes the pack's
  verdict map), and a scan reads every pack of its key space once;
* **group results** — the serialized :class:`~repro.core.mergeability.GroupOutcome`
  list of one analysis group (:func:`serialize_outcome`, whose SDC text
  plus report record round-trips byte-identically), keyed by the sorted
  member fingerprints, one entry per group.

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

* every entry — a pack or a group — is one JSON file carrying a schema
  version and a self-checksum (:func:`~repro.durable.record_crc`),
  written with :func:`~repro.durable.write_atomic` — temp file,
  ``fsync``, ``os.replace``, directory ``fsync`` — so a torn write can
  never shadow good bytes with garbage that parses;
* every read re-verifies kind/version/key/crc; any mismatch moves the
  entry to ``<root>/quarantine/`` (``CAC002``, ``cache.quarantined``)
  and the caller recomputes — for a pack, every verdict in it — so a
  fully corrupted or version-skewed store degrades to an uncached run,
  never a crash and never a byte different from cold;
* entries are immutable and named by the hash of their content (a
  pack) or inputs (a group), so neither reads nor stores take a file
  lock: two runs storing one entry each rename a whole, valid file
  into place and the last one wins, as git writes its loose objects.
  The one read-modify-write, folding a run's counters into
  ``stats.json`` (:meth:`ResultCache.flush_stats`), holds ``flock(2)``
  on ``<root>/stats.lock``, which the kernel releases when its holder
  dies;
* a failing disk (``ENOSPC``/``OSError``) records ``CAC005`` per write
  and, after a few failures, disables the cache for the rest of the run
  (``CAC001`` "cache disabled, running uncached") — results are always
  recomputed correctly, just not persisted.

Deterministic chaos (``REPRO_CHAOS``) drives the degradation paths in
CI: ``cache-corrupt`` (a bad-crc entry lands on disk) and ``cache-torn``
(a truncated entry lands on disk, as if the writer died mid-write).
These kinds are ignored by the execution engine's
:meth:`~repro.exec.chaos.ChaosPlan.strike`; the cache applies them at
its own ``cache:store:pair`` (once per pack) / ``cache:store:group``
strike points.

Maintenance (``repro-merge cache <action> ROOT``): :meth:`ResultCache.stats`,
:meth:`ResultCache.verify` (full integrity sweep), :meth:`ResultCache.prune`
(last-seen eviction — a hit touches the mtime of the entry that served
it, identical re-stores are skipped but touched; nothing else does) and
:meth:`ResultCache.clear`.  ``stats`` counts cached pair verdicts summed
over the packs; ``verify``, ``prune`` and the ``stores`` counter count
entry files, so a pack counts as one.
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

try:
    import fcntl
except ImportError:  # no flock(2): stats are advisory, flush unlocked
    fcntl = None

#: Version of the cache entry layout.  Bump on any incompatible change;
#: entries with a different version are quarantined, never guessed at.
CACHE_SCHEMA_VERSION = 3

#: ``kind`` field of every entry file.
CACHE_KIND = "repro-cache-entry"

#: ``kind`` field of the persistent stats file.
STATS_KIND = "repro-cache-stats"

#: The two entry spaces and their subdirectories.
SPACES = ("pair", "group")
_SPACE_DIRS = {"pair": "pairs", "group": "groups"}

#: Consecutive write failures (``CAC005``) after which the cache disables
#: itself for the rest of the run.
MAX_WRITE_FAILURES = 3


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


class ResultCache:
    """Persistent content-addressed store of pair verdicts and group
    results, safe to share between concurrent runs."""

    def __init__(self, root: Union[str, Path],
                 collector: Optional[DiagnosticCollector] = None,
                 chaos: Optional[ChaosPlan] = None):
        self.root = Path(root)
        self.collector = collector
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
             chaos: Optional[ChaosPlan] = None) -> "ResultCache":
        """Open (creating if needed) a cache root; never raises.

        An unusable root — the path is a file, or not writable — yields
        a *disabled* cache (``CAC001``): the run proceeds uncached.
        """
        plan = chaos if chaos is not None else ChaosPlan.from_env()
        cache = cls(root, collector=collector, chaos=plan)
        try:
            cache.root.mkdir(parents=True, exist_ok=True)
            probe = cache.root / ".writable"
            probe.write_text("")
            # A concurrent open of the same root may unlink it first.
            probe.unlink(missing_ok=True)
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
        self._count("quarantined")
        if self.collector is not None:
            self.collector.report(
                "CAC002",
                f"cache entry for {label} quarantined ({reason}); "
                f"recomputing",
                severity=Severity.WARNING, source=str(path))
        ledger = current().decisions
        if ledger.enabled:
            ledger.decide("cache.quarantined", f"cache:{label}",
                          verdict="quarantined", evidence=[reason])

    def _store(self, space: str, key: str, payload: dict,
               label: str) -> None:
        """Atomically persist one entry; the last writer of a key wins."""
        path = self._entry_path(space, key)
        data = self._entry_bytes(space, key, payload)
        try:
            if path.exists() and path.read_bytes() == data:
                # Identical content: skip the write, refresh last-seen.
                self._count("skipped_writes")
                _touch(path)
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
        self._count("stores")

    def _count(self, name: str, amount: int = 1) -> None:
        """Add to this run's tally and to the ``cache.<name>`` metric."""
        if amount:
            with self._mutex:
                self.counters[name] += amount
            current().metrics.inc(f"cache.{name}", amount)

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
        if failures >= MAX_WRITE_FAILURES:
            self.disable(f"{failures} consecutive write failure(s), "
                         f"last: {exc}")

    # ------------------------------------------------------------------
    # pair verdicts
    # ------------------------------------------------------------------
    def lookup_pairs(self, space: str, items: Sequence[Tuple[str, str]]
                     ) -> List[Optional[Tuple[bool, str]]]:
        """Batch pair lookup in one key space: ``items`` are (key, label).

        Reads and verifies every pack of ``space`` once, then answers
        each item from the first pack that holds its key.  Returns one
        slot per item: ``(mergeable, reason)`` on a hit, None on a miss
        (a quarantined pack's verdicts miss).  Only the packs that
        served a hit are touched; no verdict map outlives the call.
        """
        if not self._enabled or not items:
            return [None] * len(items)
        obs = current()
        tracer, ledger = obs.tracer, obs.decisions
        out: List[Optional[Tuple[bool, str]]] = []
        with tracer.span("cache:lookup", space="pair",
                         keys=len(items)) as span:
            paths = sorted((self.root / _SPACE_DIRS["pair"])
                           .glob(f"{space}-*.json"))
            packs: List[Tuple[Path, dict]] = []
            for path in paths:
                payload = self._load("pair", path.stem,
                                     _file_label("pair", path))
                if payload is not None \
                        and isinstance(payload.get("verdicts"), dict):
                    packs.append((path, payload["verdicts"]))
            served = set()
            for key, label in items:
                verdict = None
                for index, (_path, verdicts) in enumerate(packs):
                    verdict = verdicts.get(key)
                    if verdict is not None:
                        served.add(index)
                        break
                out.append(None if verdict is None
                           else (bool(verdict[0]), str(verdict[1])))
                if ledger.enabled:
                    fate = "miss" if verdict is None else "hit"
                    ledger.decide(f"cache.{fate}", f"cache:{label}",
                                  verdict=fate,
                                  evidence=[f"key {key[:12]}"])
            for index in served:
                _touch(packs[index][0])
            hits = len(out) - out.count(None)
            self._count("pair_hits", hits)
            self._count("pair_misses", len(out) - hits)
            if tracer.enabled:
                span.annotate(hits=hits, packs=len(paths))
        return out

    def store_pairs(self, space: str,
                    items: Sequence[Tuple[str, bool, str]]) -> None:
        """Store one scan's fresh verdicts in ``space`` as one pack:
        ``items`` are (key, mergeable, reason).

        The pack is named by the hash of its verdict map, so it is never
        rewritten: storing the same verdicts again is a skipped write.
        """
        if not self._enabled or not items:
            return
        verdicts = {key: [bool(mergeable), str(reason)]
                    for key, mergeable, reason in items}
        digest = content_hash(json.dumps(verdicts, sort_keys=True,
                                         separators=(",", ":")))
        with current().tracer.span("cache:store", space="pair",
                                   keys=len(items)):
            self._store("pair", f"{space}-{digest}",
                        {"verdicts": verdicts},
                        f"{len(verdicts)} pair verdict(s)")

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
        tracer, ledger = obs.tracer, obs.decisions
        with tracer.span("cache:lookup", space="group",
                         key=key[:12]) as span:
            payload = self._load("group", key, label)
            if not isinstance(payload, dict) \
                    or "outcomes" not in payload:
                self._count("group_misses")
                if ledger.enabled:
                    ledger.decide("cache.miss", f"cache:{label}",
                                  verdict="miss",
                                  evidence=[f"key {key[:12]}"],
                                  modes=list(modes))
                return None
            self._count("group_hits")
            _touch(self._entry_path("group", key))
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
        """Entries / bytes on disk plus cumulative hit counters.

        ``pair_entries`` counts cached pair verdicts, summed over the
        packs; a pack that does not parse counts 0 (:meth:`verify` is
        the integrity sweep).  ``group_entries`` counts group files.
        """
        entries = {"pair": 0, "group": 0}
        size = 0
        for space, path in self._iter_entries():
            entries[space] += 1 if space == "group" \
                else _verdict_count(path)
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
        """Full integrity sweep over the entry files (a pack counts as
        one); bad entries are quarantined, none is touched."""
        checked = 0
        before = self.counters["quarantined"]
        for space, path in list(self._iter_entries()):
            checked += 1
            self._load(space, path.stem, _file_label(space, path))
        return {"checked": checked,
                "quarantined": self.counters["quarantined"] - before}

    def prune(self, max_age_seconds: Optional[float] = None,
              keep: Optional[int] = None) -> dict:
        """Last-seen eviction: drop entry files not touched recently.

        ``max_age_seconds`` evicts entries whose mtime (refreshed when
        the entry serves a hit and on an identical re-store) is older,
        so a pack goes once none of its verdicts has been hit within the
        age; ``keep`` retains only the N most recently seen entry files
        per space.  With neither, only the quarantine directory is
        emptied.
        """
        evicted = 0
        scanned = 0
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
        for entries in by_space.values():
            entries.sort(reverse=True)  # newest first
            for index, (mtime, path) in enumerate(entries):
                stale = (max_age_seconds is not None
                         and now - mtime > max_age_seconds)
                overflow = keep is not None and index >= keep
                if stale or overflow:
                    evicted += _unlink(path)
        self._empty_quarantine()
        return {"scanned": scanned, "evicted": evicted}

    def clear(self) -> dict:
        """Remove every entry (and the stats file); keeps the root.

        ``stats.lock`` stays: unlinking a locked file would let the next
        flush lock a new file beside the holder's.
        """
        removed = sum(_unlink(path)
                      for _space, path in list(self._iter_entries()))
        removed += self._empty_quarantine()
        _unlink(self.root / "stats.json")
        return {"removed": removed}

    def _empty_quarantine(self) -> int:
        qdir = self.root / "quarantine"
        if not qdir.is_dir():
            return 0
        return sum(_unlink(path) for path in qdir.glob("*.json"))

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

        The cache's one read-modify-write, so its one file lock:
        ``flock(2)`` on ``<root>/stats.lock`` around the read, the fold
        and the atomic write.  The kernel releases the lock when its
        holder dies, so a killed run never blocks the next.  A failing
        flush is dropped silently — stats are advisory, results never
        depend on them.
        """
        with self._mutex:
            deltas = dict(self.counters)
            for name in self.counters:
                self.counters[name] = 0
        current().blackbox.note_state("cache", {
            "root": str(self.root), "enabled": self.enabled,
            "counters": {k: v for k, v in sorted(deltas.items()) if v}})
        if not self._enabled or not any(deltas.values()):
            return
        try:
            with open(self.root / "stats.lock", "a") as lock:
                if fcntl is not None:
                    fcntl.flock(lock, fcntl.LOCK_EX)
                stats = self._read_stats_file()
                merged = {"kind": STATS_KIND,
                          "schema_version": CACHE_SCHEMA_VERSION}
                for name in deltas:
                    merged[name] = int(stats.get(name, 0)) + deltas[name]
                write_atomic(self.root / "stats.json",
                             json.dumps(merged, sort_keys=True, indent=2)
                             + "\n")
        except OSError:
            pass


def _touch(path: Path) -> None:
    """Refresh an entry's last-seen time for :meth:`ResultCache.prune`."""
    try:
        os.utime(path)
    except OSError:
        pass


def _file_label(space: str, path: Path) -> str:
    """How diagnostics name an entry read by its file (a pack, or any
    entry :meth:`ResultCache.verify` sweeps)."""
    return f"{_SPACE_DIRS[space]}/{path.stem[-12:]}"


def _verdict_count(path: Path) -> int:
    """The verdicts in one pack file; 0 when it does not parse."""
    try:
        return len(json.loads(path.read_bytes())["payload"]["verdicts"])
    except (OSError, ValueError, LookupError, TypeError):
        return 0


def _unlink(path: Path) -> int:
    """1 when ``path`` was removed, 0 when it could not be."""
    try:
        path.unlink()
    except OSError:
        return 0
    return 1


__all__ = [
    "CACHE_KIND",
    "CACHE_SCHEMA_VERSION",
    "RestoredMergeResult",
    "ResultCache",
    "content_hash",
    "mode_fingerprint",
    "netlist_fingerprint",
    "restore_diagnostics",
    "restore_outcome",
    "serialize_outcome",
]
