"""Integration tests for the batch merge service (in-process + HTTP)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import AdmissionError
from repro.sdc import write_mode
from repro.serve.api import build_server
from repro.serve.journal import JobJournal
from repro.serve.service import MergeService, ServeConfig
from repro.serve.smoke import _netlist_text, _reference_sdcs
from repro.workloads.generator import ModeGroupSpec, WorkloadSpec, generate

TERMINAL = ("done", "failed", "cancelled")


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="serveit", seed=7,
        groups=(ModeGroupSpec("g0", 2),
                ModeGroupSpec("g1", 2, kind="scan", input_transition=0.5)))
    generated = generate(spec)
    netlist_text = _netlist_text(generated)
    sdc_texts = {mode.name: write_mode(mode) for mode in generated.modes}
    return netlist_text, sdc_texts


@pytest.fixture(scope="module")
def reference(workload):
    return _reference_sdcs(*workload)


def payload_for(workload):
    netlist_text, sdc_texts = workload
    return {"netlist": netlist_text, "modes": dict(sdc_texts)}


def wait_terminal(service, job_id, timeout=180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.status(job_id)
        if status["state"] in TERMINAL:
            return status
        time.sleep(0.1)
    raise AssertionError(
        f"job {job_id} still {service.status(job_id)['state']!r}")


class TestConcurrentJobs:
    def test_two_jobs_multiplex_and_match_the_serial_reference(
            self, tmp_path, workload, reference):
        service = MergeService(tmp_path / "root",
                               ServeConfig(runners=2, jobs=2), chaos=None)
        service.start()
        try:
            first = service.submit(payload_for(workload))
            second = service.submit(payload_for(workload))
            assert first["id"] != second["id"]
            for submitted in (first, second):
                status = wait_terminal(service, submitted["id"])
                assert status["state"] == "done", status["error"]
                base = service.artifact_path(submitted["id"],
                                             "merge_report.json").parent
                for name, want in reference.items():
                    assert (base / name).read_bytes() == want
        finally:
            service.drain()

    def test_journal_replays_to_the_same_terminal_states(
            self, tmp_path, workload):
        root = tmp_path / "root"
        service = MergeService(root, ServeConfig(runners=1, jobs=1),
                               chaos=None)
        service.start()
        try:
            submitted = service.submit(payload_for(workload))
            wait_terminal(service, submitted["id"])
        finally:
            service.drain()
        # a fresh service sees the same state machine, strictly legal
        from repro.serve.jobs import replay

        records, torn = JobJournal(root / "journal.jsonl").recover()
        assert torn == 0
        jobs = replay(records, root, strict=True)
        assert jobs[submitted["id"]].state == "done"


class TestAdmitFault:
    def test_admit_fault_takes_the_retry_ladder(self, tmp_path, workload,
                                                reference):
        # A fault at serve:admit strikes inside the attempt loop: the
        # attempt fails, is retried, and the job still finishes.
        from repro.exec.chaos import ChaosPlan
        from repro.serve.jobs import replay

        root = tmp_path / "root"
        service = MergeService(
            root, ServeConfig(runners=1, jobs=1, backoff_base=0.05),
            chaos=ChaosPlan.from_spec("corrupt@serve:admit@1"))
        service.start()
        try:
            submitted = service.submit(payload_for(workload))
            status = wait_terminal(service, submitted["id"], timeout=30)
            assert status["state"] == "done", status["error"]
            assert status["attempts"] == 2
            base = service.artifact_path(submitted["id"],
                                         "merge_report.json").parent
            for name, want in reference.items():
                assert (base / name).read_bytes() == want
        finally:
            service.drain()
        records, torn = JobJournal(root / "journal.jsonl").recover()
        assert torn == 0
        jobs = replay(records, root, strict=True)
        assert jobs[submitted["id"]].state == "done"


class TestJobResumeStore:
    def test_uncached_server_keeps_finished_groups_only(
            self, tmp_path, workload, reference):
        # With no service cache a job resumes from its private store:
        # one entry per merge group, no pair verdicts.
        root = tmp_path / "root"
        service = MergeService(root, ServeConfig(runners=1, jobs=1),
                               chaos=None)
        service.start()
        try:
            submitted = service.submit(payload_for(workload))
            status = wait_terminal(service, submitted["id"])
            assert status["state"] == "done", status["error"]
        finally:
            service.drain()
        job_dir = root / "jobs" / submitted["id"]
        report = json.loads(
            (job_dir / "artifacts" / "merge_report.json").read_text())
        store = job_dir / "cache"
        assert len(list((store / "groups").glob("*.json"))) \
            == len(report["groups"])
        assert not list((store / "pairs").glob("*.json"))


class TestAdmission:
    def test_queue_full_rejects_with_srv001(self, tmp_path, workload):
        # no runners started: submissions stay pending
        service = MergeService(tmp_path / "root",
                               ServeConfig(max_queue=1), chaos=None)
        service.submit(payload_for(workload))
        with pytest.raises(AdmissionError) as err:
            service.submit(payload_for(workload))
        assert err.value.code == "SRV001"
        assert err.value.http_status == 429

    def test_draining_rejects_with_srv006(self, tmp_path, workload):
        service = MergeService(tmp_path / "root", ServeConfig(),
                               chaos=None)
        service.start()
        service.drain()
        with pytest.raises(AdmissionError) as err:
            service.submit(payload_for(workload))
        assert err.value.code == "SRV006"
        assert err.value.http_status == 503

    def test_cancel_queued_job(self, tmp_path, workload):
        service = MergeService(tmp_path / "root", ServeConfig(),
                               chaos=None)
        submitted = service.submit(payload_for(workload))
        status = service.cancel(submitted["id"])
        assert status["state"] == "cancelled"
        records, _ = JobJournal(
            tmp_path / "root" / "journal.jsonl").recover()
        assert [r["event"] for r in records
                if r.get("job") == submitted["id"]] \
            == ["submit", "cancel"]


class TestDrainResume:
    def test_drained_jobs_resume_on_the_next_start(
            self, tmp_path, workload, reference):
        root = tmp_path / "root"
        first = MergeService(root, ServeConfig(runners=1, jobs=1),
                             chaos=None)
        submitted = first.submit(payload_for(workload))
        first.start()   # runner may or may not pick it up before...
        first.drain()   # ...the drain interrupts it
        state = first.status(submitted["id"])["state"]
        assert state != "failed"

        second = MergeService(root, ServeConfig(runners=1, jobs=1),
                              chaos=None)
        second.start()
        try:
            status = wait_terminal(second, submitted["id"])
            assert status["state"] == "done", status["error"]
            base = second.artifact_path(submitted["id"],
                                        "merge_report.json").parent
            for name, want in reference.items():
                assert (base / name).read_bytes() == want
        finally:
            second.drain()


class TestHTTPAPI:
    @pytest.fixture
    def server(self, tmp_path):
        service = MergeService(tmp_path / "root",
                               ServeConfig(runners=1, jobs=1,
                                           max_payload_bytes=200_000),
                               chaos=None)
        service.start()
        httpd = build_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield service, f"http://{host}:{port}"
        httpd.shutdown()
        httpd.server_close()
        service.drain()

    @staticmethod
    def call(url, payload=None):
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            url, data=data, method="POST" if data is not None else "GET")
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read() or b"{}")

    def test_submit_poll_artifacts(self, server, workload, reference):
        service, base = server
        status, body = self.call(f"{base}/api/jobs", payload_for(workload))
        assert status == 201 and body["state"] == "queued"
        job_id = body["id"]
        wait_terminal(service, job_id)
        status, body = self.call(f"{base}/api/jobs/{job_id}")
        assert status == 200 and body["state"] == "done"
        status, body = self.call(f"{base}/api/jobs/{job_id}/artifacts")
        assert status == 200
        for name in reference:
            assert name in body["artifacts"]
            with urllib.request.urlopen(
                    f"{base}/api/jobs/{job_id}/artifacts/{name}",
                    timeout=30) as response:
                assert response.read() == reference[name]
        status, body = self.call(f"{base}/api/jobs")
        assert status == 200 and len(body["jobs"]) == 1
        status, body = self.call(f"{base}/api/health")
        assert status == 200 and body["ok"] is True

    def test_admission_errors_surface_with_stable_codes(self, server,
                                                        workload):
        _service, base = server
        status, body = self.call(f"{base}/api/jobs", {"nope": 1})
        assert status == 400 and body["error"]["code"] == "SRV009"
        netlist_text, sdc_texts = workload
        huge = {"netlist": netlist_text,
                "modes": {"big": "x" * 300_000}}
        status, body = self.call(f"{base}/api/jobs", huge)
        assert status == 413 and body["error"]["code"] == "SRV002"
        status, body = self.call(f"{base}/api/jobs/nope")
        assert status == 404
        status, body = self.call(f"{base}/api/jobs/nope/cancel", {})
        assert status == 404


class TestLiveTelemetry:
    def test_metrics_endpoint_exposes_full_contract_in_flight(
            self, tmp_path, workload):
        from repro.obs.metrics import METRIC_CONTRACT, _prom_name

        service = MergeService(tmp_path / "root",
                               ServeConfig(runners=1, jobs=1,
                                           cache_root=tmp_path / "cache"),
                               chaos=None)
        service.start()
        httpd = build_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        try:
            submitted = service.submit(payload_for(workload))
            # Scrape while the job is queued/running: the pre-declared
            # contract rows must already be present, in Prometheus text.
            with urllib.request.urlopen(
                    f"http://{host}:{port}/api/metrics",
                    timeout=30) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                text = response.read().decode()
            for name in METRIC_CONTRACT:
                if name.partition(".")[0] in ("serve", "exec", "cache"):
                    assert _prom_name(name) in text, name
            assert "repro_serve_jobs_submitted_total 1" in text
            wait_terminal(service, submitted["id"])
            with urllib.request.urlopen(
                    f"http://{host}:{port}/api/metrics",
                    timeout=30) as response:
                done_text = response.read().decode()
            assert "repro_serve_jobs_completed_total 1" in done_text
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain()

    def test_health_reports_version_uptime_and_job_totals(
            self, tmp_path, workload):
        import repro

        service = MergeService(tmp_path / "root",
                               ServeConfig(runners=1, jobs=1), chaos=None)
        service.start()
        try:
            submitted = service.submit(payload_for(workload))
            wait_terminal(service, submitted["id"])
            health = service.health()
            assert health["version"] == repro.__version__
            assert health["uptime_seconds"] > 0.0
            assert health["jobs_admitted"] == 1
            assert health["jobs_completed"] == 1
        finally:
            service.drain()

    def test_job_progress_reaches_status_and_journal(
            self, tmp_path, workload):
        root = tmp_path / "root"
        service = MergeService(root, ServeConfig(runners=1, jobs=1),
                               chaos=None)
        service.start()
        try:
            submitted = service.submit(payload_for(workload))
            status = wait_terminal(service, submitted["id"])
            assert status["state"] == "done"
            progress = status["progress"]
            assert progress["total"] == 2  # two mode groups
            assert progress["done"] == progress["total"]
        finally:
            service.drain()
        records, _torn = JobJournal(root / "journal.jsonl").recover()
        progress_records = [r for r in records
                            if r.get("event") == "progress"]
        assert progress_records
        assert progress_records[-1]["done"] == 2
        assert progress_records[-1]["total"] == 2

    def test_profile_option_writes_valid_profile_artifact(
            self, tmp_path, workload, reference):
        from repro.obs.validate import validate_profile

        service = MergeService(tmp_path / "root",
                               ServeConfig(runners=1, jobs=1), chaos=None)
        service.start()
        try:
            payload = payload_for(workload)
            payload["options"] = {"profile": True}
            submitted = service.submit(payload)
            status = wait_terminal(service, submitted["id"])
            assert status["state"] == "done", status["error"]
            assert "profile.json" in status["artifacts"]
            path = service.artifact_path(submitted["id"], "profile.json")
            assert validate_profile(path.read_text()) == []
            record = json.loads(path.read_text())
            assert record["total_seconds"] > 0.0
            assert record["counters"].get("profile.mock_merges", 0) > 0
            # Profiling must not perturb the merged bytes.
            base = path.parent
            for name, want in reference.items():
                assert (base / name).read_bytes() == want
        finally:
            service.drain()

    def test_profile_jobs_config_profiles_every_job(
            self, tmp_path, workload):
        service = MergeService(
            tmp_path / "root",
            ServeConfig(runners=1, jobs=1, profile_jobs=True),
            chaos=None)
        service.start()
        try:
            submitted = service.submit(payload_for(workload))
            status = wait_terminal(service, submitted["id"])
            assert status["state"] == "done"
            assert "profile.json" in status["artifacts"]
        finally:
            service.drain()
