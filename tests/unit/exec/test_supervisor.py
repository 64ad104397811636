"""Unit tests for the supervised parallel execution engine."""

import multiprocessing
import os
import time

import pytest

from repro.diagnostics import DiagnosticCollector
from repro.errors import TaskFailedError
from repro.exec import (
    ChaosFault,
    ChaosPlan,
    Supervisor,
    SupervisorConfig,
    TaskOutcome,
)
from repro.obs.context import ObsContext, current, observing
from repro.obs.explain import DecisionLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

def square(x):
    return x * x


def sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def raise_value_error(x):
    raise ValueError(f"boom {x}")


def observed_task(x, delay=0.0):
    """Record a counter, a decision and a span, as pipeline work does."""
    time.sleep(delay)
    obs = current()
    with obs.tracer.span(f"work:{x}"):
        obs.metrics.inc("merge.runs")
        obs.decisions.decide("merge.group", f"group:{x}")
    return x


def observed_then_raise(x):
    observed_task(x)
    raise ValueError(f"boom {x}")


def negative_once(marker, x):
    """``x``, but -1 (a payload the validate hook rejects) on the first
    call in any process."""
    first = not os.path.exists(marker)
    open(marker, "a").close()
    return -1 if first else x


def observed_then_rejected(marker):
    """``observed_task``, rejected on the first call in any process."""
    return negative_once(marker, observed_task(7))


def codes(collector):
    return [d.code for d in collector.diagnostics]


def run_squares(config, collector=None, n=6, **kwargs):
    sup = Supervisor(config, collector=collector)
    return sup.run(square, [(i,) for i in range(n)], **kwargs)


@pytest.fixture
def fast_backoff(monkeypatch):
    monkeypatch.setattr("repro.exec.supervisor.BACKOFF_BASE", 0.01)


def assert_no_children():
    for _ in range(50):
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestSerial:
    def test_values_in_order(self):
        outcomes = run_squares(SupervisorConfig(jobs=1))
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16, 25]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert [o.index for o in outcomes] == list(range(6))

    def test_empty_batch(self):
        sup = Supervisor(SupervisorConfig())
        assert sup.run(square, []) == []

    def test_keys_must_match_tasks(self):
        sup = Supervisor(SupervisorConfig())
        with pytest.raises(ValueError, match="one-to-one"):
            sup.run(square, [(1,), (2,)], keys=["only-one"])

    def test_default_keys_use_label(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="corrupt", pattern="mywork:1")]))
        outcomes = run_squares(config, collector, n=2, label="mywork")
        assert outcomes[1].ok and outcomes[1].faults[0][0] == "corrupt"
        assert "EXE003" in codes(collector)
        assert_no_children()

    def test_is_never_struck_by_chaos(self):
        # Faults on every attempt a task could get: a serial batch has no
        # worker to crash, hang or corrupt, so each body runs once.
        collector = DiagnosticCollector()
        calls = []

        def body(x):
            calls.append(x)
            return x * x

        config = SupervisorConfig(jobs=1, chaos=ChaosPlan(faults=[
            ChaosFault(kind=kind, pattern="*", attempt=attempt)
            for attempt, kind in ((1, "crash"), (2, "hang"),
                                  (3, "corrupt"))]))
        outcomes = Supervisor(config, collector).run(
            body, [(i,) for i in range(4)])
        assert calls == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert all(o.ok and o.attempts == 1 and o.faults == []
                   for o in outcomes)
        assert collector.diagnostics == []

    def test_task_body_error_demotes_without_retry(self):
        collector = DiagnosticCollector()
        sup = Supervisor(SupervisorConfig(jobs=1),
                         collector)
        outcomes = sup.run(raise_value_error, [(7,)])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1
        assert "ValueError: boom 7" in outcomes[0].error

    def test_task_body_error_propagates_original_type(self):
        sup = Supervisor(SupervisorConfig(jobs=1, propagate_errors=True))
        with pytest.raises(ValueError, match="boom 7"):
            sup.run(raise_value_error, [(7,)])


class TestParallel:
    def test_values_match_serial(self):
        serial = run_squares(SupervisorConfig(jobs=1))
        pooled = run_squares(SupervisorConfig(jobs=2, chaos=ChaosPlan()))
        assert [o.value for o in pooled] == [o.value for o in serial]
        assert_no_children()

    def test_ordering_despite_completion_skew(self):
        # Task 0 is slow, task 1 fast: completion order inverts
        # submission order, emitted order must not.
        seen = []
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan()))
        outcomes = sup.run(
            sleep_then_return, [(0.4, "slow"), (0.0, "fast")],
            on_result=lambda o: seen.append(o.key))
        assert [o.value for o in outcomes] == ["slow", "fast"]
        assert seen == ["task:0", "task:1"]
        assert_no_children()

    def test_on_result_gets_final_outcomes(self):
        got = []
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan()))
        sup.run(square, [(i,) for i in range(5)],
                on_result=got.append)
        assert all(isinstance(o, TaskOutcome) for o in got)
        assert [o.value for o in got] == [0, 1, 4, 9, 16]

    def test_unpicklable_result_demoted_cleanly(self):
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan()))
        outcomes = sup.run(lambda: (lambda: 1), [()])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1  # a task-body error, not retried
        assert "unserializable task result" in outcomes[0].error
        assert_no_children()

    def test_task_body_error_propagates_as_task_failed(self):
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan(),
                                          propagate_errors=True))
        with pytest.raises(TaskFailedError) as excinfo:
            sup.run(raise_value_error, [(7,)])
        assert "ValueError: boom 7" in str(excinfo.value)
        assert_no_children()


class TestFaultRecovery:
    def _run_one(self, config, collector, key="task:0"):
        sup = Supervisor(config, collector=collector)
        outcomes = sup.run(square, [(3,)])
        assert_no_children()
        return outcomes[0]

    def test_pooled_crash_retried(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="crash", pattern="task:0")]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.value == 9
        assert outcome.attempts == 2
        assert outcome.faults[0][0] == "crash"
        assert "EXE002" in codes(collector)

    def test_pooled_hang_killed_and_retried(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2, deadline_seconds=0.3,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="hang", pattern="task:0")]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.value == 9
        assert outcome.faults[0][0] == "timeout"
        assert "EXE001" in codes(collector)

    def test_pooled_corrupt_payload_rejected(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="corrupt", pattern="task:0")]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.value == 9
        assert outcome.faults[0][0] == "corrupt"
        assert "EXE003" in codes(collector)

    def test_chaos_active_reports_exe007(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(jobs=2, chaos=ChaosPlan.seeded(1, 0.0))
        self._run_one(config, collector)
        assert "EXE007" in codes(collector)

    def test_exhausted_pooled_attempts_rerun_in_process(self, fast_backoff):
        # Crash all three pooled attempts: the in-process final rerun
        # (attempt 4, past every scheduled fault) is what saves the task.
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="crash", pattern="task:0", attempt=a)
                for a in (1, 2, 3)]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.in_process
        assert outcome.attempts == 4
        assert "EXE004" in codes(collector)

    def test_validate_hook_rejection_retried(self, tmp_path, fast_backoff):
        collector = DiagnosticCollector()
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan()),
                         collector=collector)
        outcomes = sup.run(
            negative_once, [(str(tmp_path / "marker"), 5)],
            validate=lambda v: "negative payload" if v < 0 else "")
        assert outcomes[0].ok and outcomes[0].value == 5
        assert outcomes[0].faults[0] == ("corrupt", "negative payload")
        assert "EXE003" in codes(collector)
        assert_no_children()


class TestDegradation:
    def test_crash_tolerance_zero_degrades_to_serial(self, fast_backoff):
        # Every task's first attempt crashes: two workers tolerate
        # 2 * 2 + 2 = 6 crashes, so the seventh leaves zero tolerance and
        # the rest of the batch runs serially in-process.
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="crash", pattern="task:*")]))
        outcomes = run_squares(config, collector, n=7)
        assert [o.value for o in outcomes] == [i * i for i in range(7)]
        assert all(o.ok for o in outcomes)
        assert "EXE005" in codes(collector)
        demotion = next(d for d in collector.diagnostics
                        if d.code == "EXE005")
        assert "7 worker crashes exceeded the tolerance of 6" \
            in demotion.message
        assert_no_children()


class TestDeterminism:
    def test_backoff_is_deterministic(self):
        sup = Supervisor(SupervisorConfig())
        assert sup._backoff("k", 1) == sup._backoff("k", 1)
        assert sup._backoff("k", 1) != sup._backoff("k2", 1)
        assert sup._backoff("k", 3) > sup._backoff("k", 1)

    def test_backoff_respects_cap(self, monkeypatch):
        monkeypatch.setattr("repro.exec.supervisor.BACKOFF_CAP", 0.2)
        sup = Supervisor(SupervisorConfig())
        assert sup._backoff("k", 50) <= 0.2 + 0.05

    def test_clean_run_records_no_decisions_or_diagnostics(self):
        collector = DiagnosticCollector()
        ledger = DecisionLedger()
        registry = MetricsRegistry()
        with observing(decisions=ledger, metrics=registry):
            with ledger.frame("run", "test"):
                run_squares(SupervisorConfig(jobs=2, chaos=ChaosPlan()),
                            collector)
        kinds = {r.kind for r in ledger.records}
        assert not any(k.startswith("exec.") for k in kinds)
        assert collector.diagnostics == []
        assert registry.to_dict()["counters"]["exec.tasks"] == 6
        assert_no_children()

    def test_faulted_run_records_retry_and_task_decisions(self,
                                                          fast_backoff):
        collector = DiagnosticCollector()
        ledger = DecisionLedger()
        config = SupervisorConfig(
            jobs=2,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="corrupt", pattern="task:1")]))
        with observing(decisions=ledger):
            with ledger.frame("run", "test"):
                run_squares(config, collector, n=3)
        kinds = [r.kind for r in ledger.records]
        assert "exec.retry" in kinds
        assert "exec.task" in kinds
        task = next(r for r in ledger.records if r.kind == "exec.task")
        assert task.subject == "task:task:1"
        assert task.verdict == "recovered"


class TestObservabilityAcrossTheFork:
    @staticmethod
    def _context():
        return ObsContext.build(tracer=Tracer(), metrics=MetricsRegistry(),
                                decisions=DecisionLedger())

    def test_pooled_records_fold_under_parent_frame_and_span_in_order(self):
        obs = self._context()
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan()))
        with observing(obs), obs.tracer.span("batch") as batch, \
                obs.decisions.frame("run", "test") as frame:
            # Task 0 finishes last: folding must still follow submission
            # order.
            sup.run(observed_task, [(0, 0.4), (1,), (2,)])
        assert obs.metrics.counter("merge.runs") == 3
        groups = obs.decisions.by_kind("merge.group")
        assert [d.subject for d in groups] == ["group:0", "group:1",
                                               "group:2"]
        assert all(d.parent is frame for d in groups)
        assert [d.span for d in groups] == ["work:0", "work:1", "work:2"]
        assert [s.name for s in batch.children
                if s.name.startswith("work:")] == ["work:0", "work:1",
                                                   "work:2"]
        assert_no_children()

    def test_task_spans_follow_submission_order(self):
        # Task t0 finishes last; its span must still come first.
        obs = ObsContext.build(tracer=Tracer())
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan()))
        with observing(obs):
            sup.run(sleep_then_return,
                    [(0.4, 0), (0.0, 1), (0.0, 2), (0.0, 3)],
                    keys=["t0", "t1", "t2", "t3"])
        spans = obs.tracer.find("exec:task")
        assert [s.attrs["key"] for s in spans] == ["t0", "t1", "t2", "t3"]
        assert spans[0].attrs["seconds"] >= 0.4
        assert_no_children()

    def test_failing_task_records_fold_before_its_error_propagates(self):
        obs = self._context()
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan(),
                                          propagate_errors=True))
        with observing(obs), pytest.raises(TaskFailedError):
            sup.run(observed_then_raise, [(3,)])
        assert obs.metrics.counter("merge.runs") == 1
        assert obs.tracer.span_names() == ["work:3"]
        assert_no_children()

    def test_rejected_attempt_payload_is_never_folded(self, tmp_path,
                                                      fast_backoff):
        obs = self._context()
        collector = DiagnosticCollector()
        sup = Supervisor(SupervisorConfig(jobs=2, chaos=ChaosPlan()),
                         collector)
        with observing(obs):
            outcomes = sup.run(
                observed_then_rejected, [(str(tmp_path / "marker"),)],
                validate=lambda v: "negative payload" if v < 0 else "")
        assert outcomes[0].ok and outcomes[0].value == 7
        assert outcomes[0].faults[0] == ("corrupt", "negative payload")
        # Both attempts ran the body; only the accepted one counts.
        assert obs.metrics.counter("merge.runs") == 1
        assert len(obs.decisions.by_kind("merge.group")) == 1
        assert obs.tracer.span_names().count("work:7") == 1
        assert_no_children()
