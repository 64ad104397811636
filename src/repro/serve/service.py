"""MergeService: the durable batch merge engine behind ``repro serve``.

Runner threads multiplex submitted jobs over the shared supervised
execution engine: each job's ``merge_all`` contends for worker slots
at one :class:`~repro.exec.gate.FairSlotGate` under its job id, so
two concurrent jobs make interleaved round-robin progress instead of
the first starving the second.

Durability contract: a submission is acknowledged only after its
inputs and ``submit`` record are fsync'd (fail *closed* — a journal
fault rejects the submission with ``SRV003``); later progress events
fail *open* (the job keeps running, a diagnostic records the miss,
and the journal replay still lands in a legal state because every
recovery path re-runs the merge from the job's result cache).  kill -9
at any instant therefore loses no acked job, and a restart reproduces
byte-identical merged SDC artifacts: each job resumes from the
service's cache when it is usable, else from a private
``jobs/<id>/cache`` that keeps finished groups only; either replays
finished groups, and merge results are deterministic given inputs.

Chaos strike points (``REPRO_CHAOS``): ``serve:admit`` (at the start
of every merge attempt), ``serve:ckpt`` (after every group a merge
flushes, once it is cached) and ``serve:finalize`` (before artifact
writes).  A strike is *armed* in the journal before it fires, so a
one-shot crash clause does not re-fire after the restart it caused.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue as queue_mod
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cache import ResultCache
from repro.core.merger import MergeOptions
from repro.diagnostics import (
    DegradationPolicy,
    DiagnosticCollector,
    Severity,
    code_for_error,
)
from repro.errors import AdmissionError, ExecInterrupted
from repro.exec.chaos import CACHE_FAULT_KINDS, ChaosPlan
from repro.exec.gate import FairSlotGate
from repro.netlist import read_verilog
from repro.obs.blackbox import (
    BlackboxRecorder,
    get_blackbox,
    thread_recording,
)
from repro.obs.explain import DecisionLedger, thread_explaining
from repro.obs.metrics import (
    METRIC_CONTRACT,
    MetricsRegistry,
    TeeMetrics,
    get_metrics,
    set_metrics,
    thread_collecting,
)
from repro.obs.profile import Profiler, thread_profiling
from repro.obs.trace import Tracer, thread_tracing
from repro.sdc import parse_mode, write_mode
from repro.serve.jobs import (
    Job,
    dump_payload,
    job_id_for,
    replay,
    validate_payload,
)
from repro.serve.journal import JobJournal, JournalError
from repro.serve.slo import SLOEngine


@dataclass
class ServeConfig:
    """Tunables of one service instance."""

    #: runner threads — jobs that may be *in flight* concurrently
    runners: int = 2
    #: worker slots each job's merge may use; also the width of the
    #: shared fair gate bounding total pooled concurrency
    jobs: int = 2
    #: queued + running jobs beyond which submissions are rejected (SRV001)
    max_queue: int = 8
    #: submission size cap in bytes, 0 = uncapped (SRV002)
    max_payload_bytes: int = 4_000_000
    #: merge attempts per job beyond the first (SRV008 between tries)
    max_retries: int = 2
    #: wall-clock budget per merge attempt (WatchdogBudget), None = none
    job_budget_seconds: Optional[float] = None
    #: retry backoff base / cap, seconds (hashed jitter on top)
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    #: degradation policy jobs run under
    policy: Union[str, DegradationPolicy] = DegradationPolicy.LENIENT
    #: result-cache directory shared by every job (None = uncached);
    #: see :class:`repro.cache.ResultCache`
    cache_root: Optional[Union[str, Path]] = None
    #: profile every job and write a per-job ``profile.json`` artifact;
    #: individual submissions can override with ``options.profile``
    profile_jobs: bool = False
    #: burn-rate evaluation windows, seconds (fast must be <= slow);
    #: see :class:`repro.serve.slo.SLOEngine`
    slo_fast_window: float = 30.0
    slo_slow_window: float = 120.0


class _StopSignal:
    """Duck-typed event OR-ing the drain event with a job's cancel."""

    def __init__(self, *events):
        self._events = events

    def is_set(self) -> bool:
        return any(event.is_set() for event in self._events)

    def wait(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.is_set():
            if deadline is None:
                time.sleep(0.02)
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            time.sleep(min(0.02, remaining))
        return True


class ServeChaos:
    """Service-level fault injection with journal-armed strike counts.

    Before a fault is applied the strike is *armed*: a ``chaos`` record
    (key + attempt) is fsync'd to the journal.  A restart replays those
    marks into the attempt counters, so a one-shot ``crash@serve:ckpt@1``
    clause kills the process exactly once instead of on every boot —
    the property that makes crash-chaos runs terminate.
    """

    def __init__(self, plan: Optional[ChaosPlan], journal: JobJournal,
                 counts: Optional[Dict[str, int]] = None):
        self.plan = plan
        self.journal = journal
        self.counts: Dict[str, int] = dict(counts or {})

    def strike(self, key: str) -> None:
        if self.plan is None:
            return
        attempt = self.counts.get(key, 0) + 1
        fault = self.plan.fault_for(key, attempt)
        if fault is None:
            return
        if fault.kind in CACHE_FAULT_KINDS:
            # Storage faults are applied by the result cache at its own
            # strike points; at service strike points they are inert.
            self.counts[key] = attempt
            return
        self.counts[key] = attempt
        self.journal.append("chaos", key=key, attempt=attempt,
                            kind=fault.kind)
        get_blackbox().record("chaos", fault=fault.kind, key=key,
                              attempt=attempt)
        if fault.kind == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.kind == "hang":
            time.sleep(min(fault.seconds or 0.25, 0.5))
        else:  # corrupt: a simulated storage fault in the job's path
            raise OSError(
                f"chaos corrupt at {key} attempt {attempt}")


class _JobResumeStore(ResultCache):
    """A job's private ``jobs/<id>/cache`` on a server without a usable
    result cache: it keeps finished groups only.

    Pair verdicts are neither looked up nor stored.  Each would be one
    fsync'd file, thousands per job for a design with a hundred modes,
    while a resumed attempt rescans the pairs in a fraction of the time
    its group merges take.
    """

    def lookup_pairs(self, items):
        return [None] * len(items)

    def store_pairs(self, items) -> None:
        return None


class MergeService:
    """Crash-safe job queue + scheduler over the merge pipeline."""

    def __init__(self, root: Union[str, Path],
                 config: Optional[ServeConfig] = None,
                 collector: Optional[DiagnosticCollector] = None,
                 chaos: Optional[ChaosPlan] = None):
        self.root = Path(root)
        self.config = config or ServeConfig()
        self.policy = DegradationPolicy.coerce(self.config.policy)
        self.collector = collector if collector is not None \
            else DiagnosticCollector(self.policy)
        plan = chaos if chaos is not None else ChaosPlan.from_env()
        self.journal = JobJournal(self.root / "journal.jsonl", chaos=plan)
        self.chaos = ServeChaos(plan, self.journal)
        self.gate = FairSlotGate(max(1, self.config.jobs))
        self.jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: "queue_mod.Queue[Job]" = queue_mod.Queue()
        self._stop = threading.Event()
        self._draining = False
        self._runners: List[threading.Thread] = []
        self._seq = 0
        #: shared cross-job result cache, opened by start()
        self.cache = None
        #: service-wide metrics registry backing GET /api/metrics,
        #: resolved by start() (reuses an enabled ambient registry,
        #: otherwise installs its own and restores it on drain)
        self.metrics: Optional[MetricsRegistry] = None
        self._owns_ambient_metrics = False
        self._previous_metrics: Optional[MetricsRegistry] = None
        self._started_monotonic: Optional[float] = None
        #: burn-rate SLO engine over the service registry (start())
        self.slo: Optional[SLOEngine] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Recover the journal, resume interrupted jobs, start runners."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._started_monotonic = time.monotonic()
        # The live-telemetry registry: reuse an already-installed ambient
        # registry (CLI --metrics, a test's collecting() scope) so counts
        # land where the caller expects, otherwise install our own as the
        # process ambient so journal/cache/runner instrumentation reaches
        # GET /api/metrics.  Every serve./exec./cache. contract name is
        # pre-declared at zero so a scrape mid-first-job already exposes
        # the full stable-name surface.
        ambient = get_metrics()
        if ambient.enabled:
            self.metrics = ambient
        else:
            self.metrics = MetricsRegistry()
            self._previous_metrics = set_metrics(self.metrics)
            self._owns_ambient_metrics = True
        if hasattr(self.metrics, "declare"):
            for name in METRIC_CONTRACT:
                if name.partition(".")[0] in ("serve", "exec", "cache"):
                    self.metrics.declare(name)
        self.slo = SLOEngine(self.metrics,
                             fast_window=self.config.slo_fast_window,
                             slow_window=self.config.slo_slow_window)
        if self.config.cache_root:
            # One cache shared by every runner thread and job; an
            # unusable root degrades to uncached (CAC001), never down.
            self.cache = ResultCache.open(
                self.config.cache_root, collector=self.collector,
                chaos=self.chaos.plan)
        records, torn = self.journal.recover()
        if torn:
            self.collector.report(
                "SRV004",
                f"journal tail torn: dropped {torn} partial record(s), "
                f"resuming from the last durable state",
                severity=Severity.WARNING, source=str(self.journal.path))
        for record in records:
            if record.get("event") == "chaos":
                key = record.get("key")
                if isinstance(key, str):
                    self.chaos.counts[key] = max(
                        self.chaos.counts.get(key, 0),
                        int(record.get("attempt", 1)))
        self.jobs = replay(records, self.root)
        self._seq = max((job.seq for job in self.jobs.values()), default=0)
        self.journal.open()
        metrics = get_metrics()
        for job in self.jobs.values():
            for anomaly in job.anomalies:
                self.collector.report(
                    "SRV004",
                    f"journal gap tolerated on replay: {anomaly} "
                    f"(a progress append failed open before the crash)",
                    severity=Severity.WARNING, source=job.id)
        for job in sorted(self.jobs.values(), key=lambda j: j.seq):
            if job.terminal:
                continue
            self._journal_progress("resume", job)
            self.collector.report(
                "SRV005",
                f"job {job.id} resumed after restart "
                f"(state replayed from journal)",
                severity=Severity.INFO, source=job.id)
            metrics.inc("serve.jobs_resumed")
            self._queue.put(job)
        self._update_depth_gauge()
        for index in range(max(1, self.config.runners)):
            thread = threading.Thread(
                target=self._runner, name=f"serve-runner-{index}",
                daemon=True)
            thread.start()
            self._runners.append(thread)

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, interrupt in-flight work.

        In-flight jobs abort cleanly between engine attempts
        (``ExecInterrupted``) with their finished groups cached and are
        resumed — byte-identically — by the next ``start()``.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self._stop.set()
        for thread in self._runners:
            thread.join(timeout=timeout)
        get_metrics().inc("serve.drains")
        if self.cache is not None:
            self.cache.flush_stats()
        try:
            self.journal.append("shutdown", draining=True)
        except JournalError:
            pass  # shutting down anyway; replay needs no terminal mark
        self.journal.close()
        if self._owns_ambient_metrics:
            set_metrics(self._previous_metrics)
            self._owns_ambient_metrics = False

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- client surface ----------------------------------------------------

    def submit(self, payload: object) -> dict:
        """Admit one job; returns its acked status or raises AdmissionError.

        The ack is durable: inputs and the ``submit`` record are fsync'd
        before this returns.  A journal fault fails the submission
        closed (``SRV003``) — the client knows the job was NOT accepted.
        """
        admit_started = time.monotonic()
        try:
            return self._submit(payload)
        finally:
            # Admission latency feeds the admission-latency SLO; it is
            # observed on every outcome — a hung journal fsync on the
            # reject path is exactly what the SLO must see.
            get_metrics().observe("serve.admit_seconds",
                                  time.monotonic() - admit_started)

    def _submit(self, payload: object) -> dict:
        metrics = get_metrics()
        if self.draining:
            metrics.inc("serve.jobs_rejected")
            raise AdmissionError(
                "SRV006", "service is draining; not admitting jobs", 503)
        normalized = validate_payload(payload,
                                      self.config.max_payload_bytes)
        with self._lock:
            pending = sum(1 for job in self.jobs.values()
                          if not job.terminal)
            if pending >= self.config.max_queue:
                metrics.inc("serve.jobs_rejected")
                raise AdmissionError(
                    "SRV001",
                    f"queue full: {pending} jobs pending "
                    f"(cap {self.config.max_queue})", 429)
            self._seq += 1
            seq = self._seq
        job_id = job_id_for(seq, normalized["netlist"],
                            normalized["modes"])
        job = Job(id=job_id, seq=seq, root=self.root)
        dump_payload(job.directory, normalized)
        record = {"seq": seq, "modes": sorted(normalized["modes"]),
                  "t": time.time()}
        try:
            journaled = self.journal.append("submit", job=job_id, **record)
        except JournalError as exc:
            metrics.inc("serve.jobs_rejected")
            self.collector.capture(exc, source=job_id)
            raise AdmissionError("SRV003", str(exc), 503) from exc
        job.apply("submit", journaled)
        with self._lock:
            self.jobs[job_id] = job
        self._queue.put(job)
        self._update_depth_gauge()
        metrics.inc("serve.jobs_submitted")
        return job.status()

    def cancel(self, job_id: str) -> dict:
        """Cancel a job; running jobs abort at the next engine boundary."""
        job = self._get(job_id)
        if job.terminal:
            return job.status()
        job.cancel_event.set()
        if job.state in ("queued", "admitted"):
            self._journal_progress("cancel", job)
            self._finish_metrics(job, "serve.jobs_cancelled")
        return job.status()

    def status(self, job_id: str) -> dict:
        return self._get(job_id).status()

    def list_jobs(self) -> List[dict]:
        with self._lock:
            jobs = sorted(self.jobs.values(), key=lambda j: j.seq)
        return [job.status() for job in jobs]

    def health(self) -> dict:
        from repro import __version__

        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self.jobs.values():
                by_state[job.state or "?"] = \
                    by_state.get(job.state or "?", 0) + 1
            draining = self._draining
        uptime = 0.0 if self._started_monotonic is None \
            else time.monotonic() - self._started_monotonic
        metrics = self.metrics
        slo_state = self.slo.state() if self.slo is not None else "no-data"
        return {"ok": True, "draining": draining, "jobs": by_state,
                "queue_depth": self._queue.qsize(),
                "version": __version__,
                "uptime_seconds": round(uptime, 3),
                "slo": slo_state,
                "jobs_admitted": int(
                    metrics.counter("serve.jobs_submitted"))
                if metrics is not None else 0,
                "jobs_completed": int(
                    metrics.counter("serve.jobs_completed"))
                if metrics is not None else 0}

    def slo_payload(self) -> dict:
        """Full burn-rate evaluation (GET /api/slo)."""
        if self.slo is None:
            from repro.serve.slo import SLO_SCHEMA_VERSION

            return {"schema_version": SLO_SCHEMA_VERSION,
                    "kind": "repro-slo", "state": "no-data", "slos": []}
        return self.slo.evaluate()

    def metrics_text(self) -> str:
        """The service registry as Prometheus text (GET /api/metrics)."""
        registry = self.metrics
        if registry is None or not hasattr(registry, "to_prometheus"):
            registry = MetricsRegistry()
        return registry.to_prometheus()

    def artifact_path(self, job_id: str, name: str) -> Path:
        """Resolve one artifact, refusing path escapes."""
        job = self._get(job_id)
        base = (job.directory / "artifacts").resolve()
        target = (base / name).resolve()
        if base != target and base not in target.parents:
            raise AdmissionError("SRV009", f"illegal artifact {name!r}", 400)
        if not target.is_file():
            raise KeyError(name)
        return target

    def _get(self, job_id: str) -> Job:
        with self._lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    # -- scheduling --------------------------------------------------------

    def _runner(self) -> None:
        while not self._stop.is_set():
            try:
                job = self._queue.get(timeout=0.1)
            except queue_mod.Empty:
                continue
            self._update_depth_gauge()
            if job.terminal:
                continue  # cancelled while queued
            self._journal_progress("admit", job)
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 — runner must survive
                self.collector.capture(exc, source=job.id)
                if not job.terminal:
                    self._fail(job, exc)

    def _run_job(self, job: Job) -> None:
        stop = _StopSignal(self._stop, job.cancel_event)
        started = time.monotonic()
        while True:
            job.attempts += 1
            self._journal_progress("start", job, attempt=job.attempts)
            try:
                self.chaos.strike("serve:admit")
                self._execute(job, stop)
            except ExecInterrupted:
                if job.cancel_event.is_set():
                    self._journal_progress("cancel", job)
                    self._finish_metrics(job, "serve.jobs_cancelled")
                # drain: no terminal record — the job stays 'running'
                # in the journal and is resumed by the next start()
                return
            except JournalError as exc:
                # fail-open already handled per append; a raise here
                # means an ack-critical path — treat as a job fault
                if not self._retryable(job):
                    self._fail(job, exc)
                    return
                if not self._backoff(job, stop):
                    return
                continue
            except Exception as exc:  # noqa: BLE001 — the retry ladder
                if job.cancel_event.is_set():
                    self._journal_progress("cancel", job)
                    self._finish_metrics(job, "serve.jobs_cancelled")
                    return
                if not self._retryable(job):
                    self._fail(job, exc)
                    return
                if not self._backoff(job, stop):
                    return
                continue
            else:
                self._journal_progress("finish", job,
                                       artifacts=job.artifacts)
                get_metrics().observe("serve.job_seconds",
                                      time.monotonic() - started)
                self._finish_metrics(job, "serve.jobs_completed")
                return

    def _retryable(self, job: Job) -> bool:
        return job.attempts <= self.config.max_retries

    def _backoff(self, job: Job, stop: _StopSignal) -> bool:
        """SRV008: journal the retry, wait with hashed jitter.

        Returns False when the wait was interrupted by drain/cancel
        (the job is then left for resume or cancelled by the caller's
        next loop pass — we just stop working on it).
        """
        self._journal_progress("retry", job, attempt=job.attempts)
        self.collector.report(
            "SRV008",
            f"job {job.id} attempt {job.attempts} failed; retrying",
            severity=Severity.INFO, source=job.id)
        get_metrics().inc("serve.job_retries")
        digest = hashlib.sha256(
            f"{job.id}|{job.attempts}".encode()).hexdigest()
        jitter = int(digest[:8], 16) / 0xFFFFFFFF
        delay = min(self.config.backoff_cap,
                    self.config.backoff_base * (2 ** (job.attempts - 1)))
        delay *= 0.5 + 0.5 * jitter
        if stop.wait(delay):
            if job.cancel_event.is_set():
                self._journal_progress("cancel", job)
                self._finish_metrics(job, "serve.jobs_cancelled")
            return False
        return True

    def _fail(self, job: Job, exc: BaseException) -> None:
        job.error = f"{code_for_error(exc)}: {exc}"
        if (job.directory / "artifacts" / "blackbox.json").is_file():
            # Failed jobs keep their flight recorder: surface it in the
            # artifact listing (journaled, so replay restores it) and
            # count the retention.
            if "blackbox.json" not in job.artifacts:
                job.artifacts.append("blackbox.json")
            get_metrics().inc("serve.blackboxes_retained")
        self._journal_progress("fail", job, error=job.error,
                               artifacts=job.artifacts)
        self.collector.capture(exc, source=job.id)
        self._finish_metrics(job, "serve.jobs_failed")

    def _finish_metrics(self, job: Job, counter: str) -> None:
        get_metrics().inc(counter)
        self._update_depth_gauge()

    def _update_depth_gauge(self) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.set_gauge("serve.queue_depth", self._queue.qsize())

    def _journal_progress(self, event: str, job: Job, **fields) -> None:
        """Append + apply one event, failing open on journal faults."""
        fields.setdefault("t", time.time())
        try:
            record = self.journal.append(event, job=job.id, **fields)
        except JournalError as exc:
            self.collector.capture(exc, source=job.id)
            record = dict(fields, event=event, job=job.id)
        job.apply(event, record)

    # -- execution ---------------------------------------------------------

    def _execute(self, job: Job, stop: _StopSignal) -> None:
        """One merge attempt: cached merge_all + artifact writes."""
        from repro.core.mergeability import merge_all

        payload = json.loads((job.directory / "input.json").read_text())
        netlist_text = payload["netlist"]
        sdc_texts = payload["modes"]
        job_collector = DiagnosticCollector(self.policy)
        options = MergeOptions(
            policy=self.policy,
            budget_seconds=self.config.job_budget_seconds,
            exec_stop_event=stop,
            exec_slot_gate=self.gate,
            exec_gate_client=job.id,
        )
        allowed = {"tolerance": float, "max_iterations": int,
                   "validate": bool, "signoff_guard": bool,
                   "strict": bool}
        job_options = payload.get("options", {})
        for key, value in job_options.items():
            if key in allowed and isinstance(value, (int, float, bool)):
                setattr(options, key, allowed[key](value))
        want_profile = bool(job_options.get("profile",
                                            self.config.profile_jobs))

        def _progress(done: int, total: int) -> None:
            self._journal_progress("progress", job, done=done, total=total)
            self.chaos.strike("serve:ckpt")

        options.progress = _progress
        tracer = Tracer()
        registry = MetricsRegistry()
        ledger = DecisionLedger()
        # Job recordings also land in the service registry so a scrape
        # of GET /api/metrics mid-run sees the in-flight exec./cache.
        # activity; the job's own artifact still reads from `registry`.
        job_metrics = registry if self.metrics is None \
            else TeeMetrics(registry, self.metrics)
        profiler = Profiler() if want_profile else None
        # Each attempt gets a fresh per-job flight recorder; a failing
        # attempt flushes it into the job's artifacts directory so the
        # forensics ride along with the job, not the server process.
        recorder = BlackboxRecorder()
        tracer.add_listener(recorder)
        ledger.add_listener(recorder)
        if profiler is not None:
            tracer.add_listener(profiler)
        try:
            with thread_tracing(tracer), thread_collecting(job_metrics), \
                    thread_explaining(ledger), thread_profiling(profiler), \
                    thread_recording(recorder):
                if profiler is not None:
                    profiler.start()
                try:
                    # Parse inside the guarded region: an unparseable
                    # submission is exactly the kind of failure the
                    # per-job flight recorder must document.
                    netlist = read_verilog(netlist_text)
                    modes = [parse_mode(text, name, policy=self.policy,
                                        collector=job_collector,
                                        source=name)
                             for name, text in sorted(sdc_texts.items())]
                    cache = self.cache
                    if cache is None or not cache.enabled:
                        cache = _JobResumeStore.open(
                            job.directory / "cache",
                            collector=job_collector, chaos=self.chaos.plan)
                    with tracer.span("serve:job", job=job.id,
                                     modes=[m.name for m in modes],
                                     attempt=job.attempts):
                        run = merge_all(netlist, modes, options,
                                        collector=job_collector,
                                        jobs=self.config.jobs, cache=cache)
                finally:
                    if profiler is not None:
                        profiler.stop()
            self.chaos.strike("serve:finalize")
        except ExecInterrupted:
            # Clean drain/cancel: the job resumes later, nothing is wrong.
            raise
        except BaseException as exc:
            recorder.flush(
                job.directory / "artifacts" / "blackbox.json",
                reason={"kind": "job-fault", "job": job.id,
                        "attempt": job.attempts,
                        "detail": f"{type(exc).__name__}: {exc}"[:240]},
                metrics=registry)
            raise
        self._journal_progress("finalize", job)
        job.artifacts = self._write_artifacts(
            job, run, tracer, registry, ledger, job_collector,
            profiler=profiler)
        # A successful attempt supersedes any forensics a failed earlier
        # attempt left behind: blackboxes are retained for failed jobs.
        stale = job.directory / "artifacts" / "blackbox.json"
        if stale.exists():
            try:
                stale.unlink()
            except OSError:
                pass

    def _write_artifacts(self, job: Job, run, tracer, registry, ledger,
                         job_collector, profiler=None) -> List[str]:
        """Write the artifact set; deterministic pieces are re-written
        byte-identically when a crash forces this to run again."""
        base = job.directory / "artifacts"
        base.mkdir(parents=True, exist_ok=True)
        names: List[str] = []
        for outcome in run.outcomes:
            if outcome.result is None:
                continue
            name = outcome.result.merged.name.replace("+", "_") + ".sdc"
            (base / name).write_text(write_mode(outcome.result.merged))
            names.append(name)
        (base / "merge_report.json").write_text(
            json.dumps(run.to_dict(), indent=2) + "\n")
        names.append("merge_report.json")
        tracer.write(base / "trace.jsonl")
        names.append("trace.jsonl")
        registry.write(base / "metrics.json")
        names.append("metrics.json")
        ledger.write(base / "decisions.json")
        names.append("decisions.json")
        (base / "diagnostics.json").write_text(job_collector.to_json())
        names.append("diagnostics.json")
        if profiler is not None:
            profiler.write(base / "profile.json", tracer=tracer,
                           metrics=registry)
            names.append("profile.json")
        from repro.obs.report_html import write_run_report

        profile_payload = None if profiler is None \
            else profiler.export(tracer=tracer, metrics=registry)
        write_run_report(base / "report.html", run=run, tracer=tracer,
                         metrics=registry, decisions=ledger,
                         profile=profile_payload,
                         title=f"repro-serve {job.id}")
        names.append("report.html")
        return sorted(names)
