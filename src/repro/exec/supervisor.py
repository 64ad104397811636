"""Fault-contained task execution: a supervisor over a process pool.

The paper's flow is embarrassingly parallel at two levels — the
O(#modes²) mock merges of the mergeability scan and the independent
per-clique merges of ``merge_all`` — but in an MCMM sign-off setting a
single hung or crashed worker must never sink the run.  The
:class:`Supervisor` runs a batch of tasks over forked worker processes
with:

* **per-task wall-clock deadlines** — an attempt that outlives its
  deadline gets its worker killed and the task requeued (``EXE001``);
* **crash isolation** — a worker lost to a signal or broken pipe only
  costs the attempt it was running; the task is requeued and a fresh
  worker is forked (``EXE002``);
* **payload validation** — a result the caller's ``validate`` hook (or
  the built-in :class:`~repro.exec.chaos.CorruptPayload` check) rejects
  is treated like a crash, never handed to the caller (``EXE003``);
* **bounded retry** with exponential backoff plus deterministic jitter
  (hash-derived, so reruns schedule identically);
* **last-resort in-process rerun** — a task that exhausts its pooled
  attempts runs once more serially in the supervisor's own process,
  where no pool pathology can touch it (``EXE004``);
* **graceful degradation** — too many crashes, a failed fork, or a
  platform without the ``fork`` start method degrade the whole batch to
  serial in-process execution instead of failing it (``EXE005``);
* **deterministic result ordering** — outcomes are emitted strictly in
  submission order regardless of completion order, so a parallel run is
  byte-identical to a serial one.

Every event is wired into the observability stack: ``EXE`` diagnostics,
``exec.*`` metrics, ``exec:task``/``exec:retry`` trace spans, and
``exec.*`` decision-ledger kinds.  Clean tasks record **no** decisions
and no diagnostics, so a fault-free parallel run produces the same
decision ledger as a serial one.

This is the one module that forks, so it also carries the task's own
observability across the fork: a pooled attempt records into
:meth:`~repro.obs.context.ObsContext.for_worker` collectors and ships
their payload beside its value, and the parent folds the accepted
attempt's payload into its context, in submission order, just before
``on_result``.  A parallel run's spans, metrics, decisions, profile and
flight-recorder events are therefore those of a serial run, and a
rejected attempt's never count.

Error semantics: only *infrastructure* faults (timeout, crash, corrupt
payload) are retried.  An ordinary exception raised by the task body is
deterministic — retrying it wastes the budget — so it fails the task
immediately: with ``propagate_errors`` the exception propagates to the
caller (in-process with its original type, from a pooled worker as a
:class:`~repro.errors.TaskFailedError`), otherwise the task's outcome
carries the error and an ``EXE006`` demotion diagnostic.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.diagnostics import DiagnosticCollector, Severity
from repro.errors import TaskFailedError
from repro.exec.chaos import ChaosCrashError, ChaosPlan, CorruptPayload
from repro.obs.context import current, observing

#: Worker -> parent message tagging an initializer failure.
_INIT_ERROR = "__init_error__"


@dataclass
class SupervisorConfig:
    """Tunables of one supervised batch."""

    #: worker processes; 1 = serial in-process (still supervised:
    #: chaos, validation and retry apply on every path)
    jobs: int = 1
    #: wall-clock seconds one pooled attempt may run before its worker
    #: is killed and the task requeued (None = no deadline; in-process
    #: execution is never preempted — the in-merge watchdog governs it)
    deadline_seconds: Optional[float] = None
    #: attempts per task, counting the first (infra faults only)
    max_attempts: int = 3
    #: base of the exponential backoff between attempts
    backoff_base: float = 0.05
    #: ceiling of the exponential backoff
    backoff_cap: float = 2.0
    #: rerun a task in-process after its pooled attempts are exhausted
    final_in_process: bool = True
    #: worker crashes tolerated before the batch degrades to serial
    #: (None = 2 * jobs + 2)
    max_worker_crashes: Optional[int] = None
    #: event-loop poll interval (seconds)
    poll_interval: float = 0.05
    #: explicit chaos plan; None consults ``REPRO_CHAOS`` (see
    #: ``use_env_chaos``)
    chaos: Optional[ChaosPlan] = None
    #: with chaos=None, read the ambient plan from ``REPRO_CHAOS``
    use_env_chaos: bool = True
    #: re-raise task-body exceptions (in-process: original type; pooled:
    #: TaskFailedError) instead of demoting the task
    propagate_errors: bool = False

    def resolved_chaos(self) -> Optional[ChaosPlan]:
        if self.chaos is not None:
            return self.chaos
        if self.use_env_chaos:
            return ChaosPlan.from_env()
        return None


@dataclass
class TaskOutcome:
    """Final state of one supervised task, in submission order."""

    key: str
    index: int
    ok: bool
    value: Any = None
    error: str = ""
    #: attempts spent, counting the successful/final one
    attempts: int = 0
    #: (fault kind, detail) per infra fault survived along the way
    faults: List[Tuple[str, str]] = field(default_factory=list)
    #: the final attempt ran serially in the supervisor's process
    in_process: bool = False


class _TaskState:
    __slots__ = ("index", "key", "args", "attempt", "faults", "not_before",
                 "deadline", "deadline_at", "first_start")

    def __init__(self, index: int, key: str, args: tuple):
        self.index = index
        self.key = key
        self.args = args
        self.attempt = 0
        self.faults: List[Tuple[str, str]] = []
        self.not_before = 0.0
        self.deadline: Optional[float] = None
        self.deadline_at: Optional[float] = None
        self.first_start: Optional[float] = None


class _Worker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


def _worker_main(conn, parent_end, fn, initializer, initargs,
                 chaos_spec) -> None:
    """Long-lived worker loop: recv task, run it (under chaos), send.

    Each attempt runs under fresh collectors for the layers enabled in
    the context inherited through the fork, and their payload rides home
    beside the result.
    """
    # Forking duplicated the supervisor's end of our own pipe into this
    # process; close it, or recv() below can never see EOF and a worker
    # orphaned by a SIGKILLed supervisor would block forever instead of
    # exiting.  (Ends of *earlier* workers' pipes inherited the same way
    # resolve transitively: the youngest worker holds none, exits on
    # EOF, and thereby releases the next one's.)
    if parent_end is not None:
        try:
            parent_end.close()
        except OSError:
            pass
    chaos = ChaosPlan.from_spec(chaos_spec)
    inherited = current()
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as exc:  # systemic: poison every task
        _safe_send(conn, (_INIT_ERROR,
                          f"{type(exc).__name__}: {exc}"))
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        index, key, attempt, args, deadline = msg
        obs = inherited.for_worker()
        with observing(obs):
            obs.profiler.start()
            try:
                corrupted = chaos.strike(key, attempt, deadline) \
                    if chaos is not None else None
                value = fn(*args) if corrupted is None else corrupted
                status, error = "ok", ""
            except BaseException as exc:
                value, status = None, "error"
                error = f"{type(exc).__name__}: {exc}"
            finally:
                obs.profiler.stop()
        if not _safe_send(conn, (index, attempt, status, value, error,
                                 obs.payload())):
            return


def _safe_send(conn, payload) -> bool:
    """Send, downgrading an unpicklable result to an error message."""
    try:
        conn.send(payload)
        return True
    except Exception as exc:
        try:
            if len(payload) == 6:
                conn.send((payload[0], payload[1], "error", None,
                           f"unserializable task result: {exc}", None))
                return True
        except Exception:
            pass
        return False


def _fork_context():
    import multiprocessing as mp

    try:
        return mp.get_context("fork")
    except ValueError:
        return None


class Supervisor:
    """Runs batches of tasks with fault containment (module docstring)."""

    #: fault kind -> (diagnostic code, metric counter)
    _FAULT_CODES = {
        "timeout": ("EXE001", "exec.timeouts"),
        "crash": ("EXE002", "exec.crashes"),
        "corrupt": ("EXE003", "exec.corrupt_payloads"),
    }

    def __init__(self, config: Optional[SupervisorConfig] = None,
                 collector: Optional[DiagnosticCollector] = None):
        self.config = config or SupervisorConfig()
        self.collector = collector if collector is not None \
            else DiagnosticCollector()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, fn: Callable, tasks: Sequence[tuple], *,
            keys: Optional[Sequence[str]] = None,
            validate: Optional[Callable[[Any], str]] = None,
            initializer: Optional[Callable] = None,
            initargs: tuple = (),
            label: str = "task",
            on_result: Optional[Callable[[TaskOutcome], None]] = None
            ) -> List[TaskOutcome]:
        """Run ``fn(*task)`` for every task; outcomes in submission order.

        ``keys`` are the stable per-task identities chaos schedules and
        diagnostics refer to (default ``label:i``).  ``validate`` maps a
        task's return value to an error string ("" = valid); rejected
        payloads are retried like crashes.  ``on_result`` is invoked
        once per task, strictly in submission order, as soon as the
        ordered prefix completes — this is what keeps parallel output
        deterministic.  ``initializer(*initargs)`` runs once per worker
        (and once in-process before any serial execution).
        """
        tasks = [tuple(t) for t in tasks]
        n = len(tasks)
        key_list = list(keys) if keys is not None \
            else [f"{label}:{i}" for i in range(n)]
        if len(key_list) != n:
            raise ValueError("keys must match tasks one-to-one")
        self._fn = fn
        self._validate = validate
        self._on_result = on_result
        self._label = label
        self._chaos = self.config.resolved_chaos()
        self._outcomes: List[Optional[TaskOutcome]] = [None] * n
        #: observability payload of each pooled task's final attempt,
        #: folded into the current context when its outcome is flushed
        self._payloads: List[Optional[dict]] = [None] * n
        self._cursor = 0
        self._initialized = False
        self._initializer = initializer
        self._initargs = initargs
        if n == 0:
            return []
        current().metrics.inc("exec.tasks", n)
        if self._chaos is not None:
            self.collector.report(
                "EXE007",
                f"deterministic chaos injection active for batch "
                f"{label!r} ({self._chaos.to_spec()})",
                severity=Severity.INFO, source=label)
        states = [_TaskState(i, key_list[i], tasks[i]) for i in range(n)]
        jobs = max(1, self.config.jobs)
        ctx = _fork_context() if jobs > 1 else None
        if jobs > 1 and ctx is None:
            self._note_degrade("the 'fork' start method is unavailable "
                               "on this platform")
        if ctx is not None and jobs > 1:
            self._run_pooled(ctx, states, jobs)
        else:
            self._run_serial(states)
        return [o for o in self._outcomes if o is not None]

    # ------------------------------------------------------------------
    # serial / in-process execution
    # ------------------------------------------------------------------
    def _ensure_initialized(self) -> None:
        if not self._initialized:
            self._initialized = True
            if self._initializer is not None:
                self._initializer(*self._initargs)

    def _run_serial(self, states: List["_TaskState"]) -> None:
        self._ensure_initialized()
        for st in states:
            if self._outcomes[st.index] is None:
                self._run_task_in_process(st)

    def _attempt_in_process(self, st: "_TaskState"
                            ) -> Optional[Tuple[str, str]]:
        """One in-process attempt; returns an infra fault or None.

        Task-body exceptions either propagate (``propagate_errors``) or
        finish the task failed; neither is an infra fault.
        """
        st.attempt += 1
        if st.first_start is None:
            st.first_start = time.perf_counter()
        try:
            corrupted = self._chaos.strike(
                st.key, st.attempt, self.config.deadline_seconds,
                in_process=True) if self._chaos is not None else None
        except ChaosCrashError as exc:
            return ("crash", str(exc))
        if corrupted is not None:
            value = corrupted
        else:
            try:
                value = self._fn(*st.args)
            except Exception as exc:
                if self.config.propagate_errors:
                    raise
                self._finish(st, ok=False,
                             error=f"{type(exc).__name__}: {exc}",
                             in_process=True)
                return None
        reason = self._invalid_reason(value)
        if reason:
            return ("corrupt", reason)
        self._finish(st, ok=True, value=value, in_process=True)
        return None

    def _run_task_in_process(self, st: "_TaskState") -> None:
        """Serial execution of one task with the full retry ladder."""
        while True:
            fault = self._attempt_in_process(st)
            if fault is None:
                return
            if st.attempt >= self.config.max_attempts:
                self._fail(st, fault, in_process=True)
                return
            self._record_fault(st, fault)
            time.sleep(self._backoff(st.key, st.attempt))

    def _final_in_process(self, st: "_TaskState",
                          last_fault: Tuple[str, str]) -> None:
        """Last resort: one serial rerun after pooled attempts ran out."""
        self.collector.report(
            "EXE004",
            f"task {st.key!r} exhausted its {st.attempt} pooled "
            f"attempt(s); re-running serially in-process",
            severity=Severity.INFO, source=st.key)
        current().metrics.inc("exec.in_process_reruns")
        self._record_fault(st, last_fault)
        self._ensure_initialized()
        fault = self._attempt_in_process(st)
        if fault is not None:
            self._fail(st, fault, in_process=True)

    # ------------------------------------------------------------------
    # pooled execution
    # ------------------------------------------------------------------
    def _run_pooled(self, ctx, states: List["_TaskState"],
                    jobs: int) -> None:
        from collections import deque
        from multiprocessing import connection as mpc

        cfg = self.config
        chaos_spec = self._chaos.to_spec() if self._chaos else ""
        max_crashes = cfg.max_worker_crashes \
            if cfg.max_worker_crashes is not None else 2 * jobs + 2
        crashes = 0
        queue = deque(states)
        inflight: dict = {}
        idle: List[_Worker] = []
        workers: List[_Worker] = []
        degrade_reason = ""
        pending_error: Optional[TaskFailedError] = None

        def spawn() -> Optional[_Worker]:
            try:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, parent_conn, self._fn,
                          self._initializer, self._initargs, chaos_spec),
                    daemon=True)
                proc.start()
                child_conn.close()
            except Exception as exc:
                return None if self._set_degrade(
                    f"cannot fork a worker process: {exc}") else None
            worker = _Worker(proc, parent_conn)
            workers.append(worker)
            idle.append(worker)
            current().metrics.inc("exec.workers_spawned")
            return worker

        def discard(worker: _Worker) -> None:
            if worker in idle:
                idle.remove(worker)
            if worker in workers:
                workers.remove(worker)
            self._kill_worker(worker)

        def degraded() -> bool:
            return bool(degrade_reason)

        self._set_degrade = lambda reason: _set(reason)

        def _set(reason: str) -> bool:
            nonlocal degrade_reason
            if not degrade_reason:
                degrade_reason = reason
            return True

        def requeue_or_finalize(st: "_TaskState",
                                fault: Tuple[str, str]) -> None:
            if st.attempt < cfg.max_attempts:
                self._record_fault(st, fault)
                st.not_before = time.perf_counter() \
                    + self._backoff(st.key, st.attempt)
                queue.append(st)
            elif cfg.final_in_process:
                self._final_in_process(st, fault)
            else:
                self._fail(st, fault)

        try:
            for _ in range(min(jobs, len(states))):
                if spawn() is None:
                    break
            if not workers:
                _set(degrade_reason or "cannot start the worker pool")
            while not degraded() and (queue or inflight):
                now = time.perf_counter()
                # -- dispatch ------------------------------------------
                while idle and queue:
                    st = None
                    for _ in range(len(queue)):
                        candidate = queue.popleft()
                        if candidate.not_before <= now:
                            st = candidate
                            break
                        queue.append(candidate)
                    if st is None:
                        break
                    worker = idle.pop()
                    st.attempt += 1
                    if st.first_start is None:
                        st.first_start = now
                    st.deadline = cfg.deadline_seconds
                    st.deadline_at = now + st.deadline \
                        if st.deadline is not None else None
                    try:
                        worker.conn.send((st.index, st.key, st.attempt,
                                          st.args, st.deadline))
                    except (OSError, ValueError) as exc:
                        crashes += 1
                        discard(worker)
                        st.attempt -= 1
                        queue.appendleft(st)
                        if crashes > max_crashes:
                            _set(f"{crashes} worker crashes exceeded the "
                                 f"tolerance of {max_crashes}")
                            break
                        spawn()
                        continue
                    inflight[worker] = st
                if degraded():
                    break
                if not inflight:
                    if queue:  # every queued task is backing off
                        wake = min(s.not_before for s in queue)
                        time.sleep(max(0.0, min(
                            wake - time.perf_counter(),
                            cfg.backoff_cap)))
                        continue
                    break
                # -- collect -------------------------------------------
                timeout = cfg.poll_interval
                soonest = min((s.deadline_at for s in inflight.values()
                               if s.deadline_at is not None), default=None)
                if soonest is not None:
                    timeout = min(timeout, max(
                        0.0, soonest - time.perf_counter()))
                ready = mpc.wait([w.conn for w in inflight],
                                 timeout=timeout)
                by_conn = {w.conn: w for w in inflight}
                for conn in ready:
                    worker = by_conn.get(conn)
                    if worker is None:
                        continue
                    st = inflight.get(worker)
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        crashes += 1
                        inflight.pop(worker, None)
                        discard(worker)
                        if st is not None:
                            requeue_or_finalize(
                                st, ("crash", f"worker running "
                                     f"{st.key!r} died (killed or "
                                     f"crashed)"))
                        if crashes > max_crashes:
                            _set(f"{crashes} worker crashes exceeded "
                                 f"the tolerance of {max_crashes}")
                            break
                        if queue or inflight:
                            spawn()
                        continue
                    if isinstance(msg, tuple) and msg \
                            and msg[0] == _INIT_ERROR:
                        # The initializer is shared state: failing once
                        # means every worker fails; degrade immediately.
                        inflight.pop(worker, None)
                        discard(worker)
                        if st is not None:
                            st.attempt -= 1
                            queue.appendleft(st)
                        _set(f"worker initializer failed: {msg[1]}")
                        break
                    index, attempt, status, value, error, payload = msg
                    if st is None or index != st.index \
                            or attempt != st.attempt:
                        continue  # stale result from a superseded attempt
                    inflight.pop(worker)
                    idle.append(worker)
                    if status == "ok":
                        reason = self._invalid_reason(value)
                        if reason:
                            requeue_or_finalize(st, ("corrupt", reason))
                        else:
                            self._finish(st, ok=True, value=value,
                                         payload=payload)
                    elif self.config.propagate_errors:
                        # The batch ends here, as it would in-process with
                        # the task's records already in: keep them for
                        # the flight recorder's forensics.
                        current().fold(payload)
                        pending_error = TaskFailedError(st.key, error)
                        _set(f"task {st.key!r} raised under "
                             f"propagate_errors")
                        break
                    else:
                        self._finish(st, ok=False, error=error,
                                     payload=payload)
                if degraded():
                    break
                # -- deadline sweep ------------------------------------
                now = time.perf_counter()
                for worker, st in list(inflight.items()):
                    if st.deadline_at is not None and now > st.deadline_at:
                        inflight.pop(worker)
                        discard(worker)
                        requeue_or_finalize(
                            st, ("timeout", f"task exceeded its "
                                 f"{st.deadline:g}s deadline; worker "
                                 f"killed"))
                        if queue or inflight:
                            spawn()
        finally:
            for worker in list(workers):
                self._kill_worker(worker)
            workers.clear()
            idle.clear()
        if pending_error is not None:
            raise pending_error
        if degrade_reason:
            self._note_degrade(degrade_reason)
            leftovers = sorted(
                list(queue) + list(inflight.values()),
                key=lambda s: s.index)
            self._ensure_initialized()
            for st in leftovers:
                if self._outcomes[st.index] is None:
                    self._run_task_in_process(st)
            # Tasks never reached by the loop above (still unfinished).
            for st in sorted(set(queue) | set(inflight.values()),
                             key=lambda s: s.index):
                if self._outcomes[st.index] is None:
                    self._run_task_in_process(st)

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------
    def _backoff(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic (hash-derived) jitter."""
        base = self.config.backoff_base
        delay = min(self.config.backoff_cap, base * 2 ** (attempt - 1))
        digest = hashlib.sha256(f"{key}|{attempt}".encode()).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2 ** 64 * base
        return delay + jitter

    def _invalid_reason(self, value: Any) -> str:
        if isinstance(value, CorruptPayload):
            return (f"payload of {value.key!r} attempt {value.attempt} "
                    f"is a chaos CorruptPayload sentinel")
        if self._validate is not None:
            try:
                return self._validate(value) or ""
            except Exception as exc:
                return f"payload validation raised: {exc}"
        return ""

    def _record_fault(self, st: "_TaskState",
                      fault: Tuple[str, str]) -> None:
        """One retryable infra fault: diagnostic + metric + decision."""
        kind, detail = fault
        st.faults.append((kind, detail))
        code, metric = self._FAULT_CODES[kind]
        obs = current()
        obs.metrics.inc(metric)
        obs.metrics.inc("exec.retries")
        self.collector.report(
            code,
            f"task {st.key!r} attempt {st.attempt} hit a {kind} fault "
            f"({detail}); retrying",
            severity=Severity.WARNING, source=st.key,
            details={"attempt": st.attempt, "fault": kind})
        if obs.decisions.enabled:
            obs.decisions.decide("exec.retry", f"task:{st.key}",
                                 verdict=kind, evidence=[detail],
                                 attempt=st.attempt)
        if obs.tracer.enabled:
            with obs.tracer.span("exec:retry", key=st.key, fault=kind,
                                 attempt=st.attempt):
                pass

    def _fail(self, st: "_TaskState", fault: Tuple[str, str],
              in_process: bool = False) -> None:
        """Attempts exhausted: clean EXE006-coded demotion."""
        kind, detail = fault
        st.faults.append((kind, detail))
        self.collector.report(
            "EXE006",
            f"task {st.key!r} failed after {st.attempt} attempt(s); "
            f"last fault: {kind} ({detail})",
            severity=Severity.WARNING, source=st.key,
            details={"attempts": st.attempt, "fault": kind})
        self._finish(st, ok=False,
                     error=f"failed after {st.attempt} attempt(s); "
                           f"last fault: {kind} ({detail})",
                     in_process=in_process)

    def _note_degrade(self, reason: str) -> None:
        obs = current()
        obs.metrics.inc("exec.degraded")
        self.collector.report(
            "EXE005",
            f"batch {self._label!r} degraded from pooled to serial "
            f"execution: {reason}",
            severity=Severity.WARNING, source=self._label)
        if obs.decisions.enabled:
            obs.decisions.decide("exec.degrade", f"batch:{self._label}",
                                 verdict="serial", evidence=[reason])

    def _finish(self, st: "_TaskState", ok: bool, value: Any = None,
                error: str = "", in_process: bool = False,
                payload: Optional[dict] = None) -> None:
        outcome = TaskOutcome(
            key=st.key, index=st.index, ok=ok, value=value, error=error,
            attempts=st.attempt, faults=list(st.faults),
            in_process=in_process)
        self._outcomes[st.index] = outcome
        self._payloads[st.index] = payload
        obs = current()
        elapsed = time.perf_counter() - st.first_start \
            if st.first_start is not None else 0.0
        obs.metrics.observe("exec.task_seconds", elapsed)
        if not ok:
            obs.metrics.inc("exec.task_failures")
        # Clean tasks record nothing: a fault-free parallel run keeps
        # the serial run's decision ledger byte-identical.
        if obs.decisions.enabled and (st.faults or not ok):
            obs.decisions.decide(
                "exec.task", f"task:{st.key}",
                verdict="recovered" if ok else "demoted",
                evidence=[f"{kind}: {detail}"
                          for kind, detail in st.faults] or [error],
                attempts=st.attempt, in_process=in_process)
        if obs.tracer.enabled:
            with obs.tracer.span("exec:task", key=st.key, ok=ok,
                                 attempts=st.attempt, seconds=round(
                                     elapsed, 6)):
                pass
        while self._cursor < len(self._outcomes) \
                and self._outcomes[self._cursor] is not None:
            done = self._outcomes[self._cursor]
            obs.fold(self._payloads[self._cursor])
            self._payloads[self._cursor] = None
            self._cursor += 1
            if self._on_result is not None:
                self._on_result(done)

    @staticmethod
    def _kill_worker(worker: "_Worker") -> None:
        try:
            if worker.proc.is_alive():
                worker.proc.kill()
            worker.proc.join(timeout=5)
        except Exception:
            pass
        try:
            worker.conn.close()
        except Exception:
            pass
