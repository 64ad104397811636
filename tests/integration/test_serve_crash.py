"""Crash-safety tests: kill -9 the serve process at each journal phase.

The service is run as a real subprocess with a one-shot chaos kill
clause at one of three phases — right after the merge attempt starts
(``serve:admit``), mid-merge once the first group is cached
(``serve:ckpt``), and after the merge but before artifacts
(``serve:finalize``).  The restart must complete every acked job with
merged SDCs byte-identical to an uninterrupted serial run, and the
journal must replay through the strict state machine: no lost and no
duplicated transitions.
"""

import json
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.sdc import write_mode
from repro.serve.jobs import replay
from repro.serve.journal import JobJournal
from repro.serve.smoke import ServerHandle, _netlist_text, _reference_sdcs
from repro.workloads.generator import ModeGroupSpec, WorkloadSpec, generate

PHASES = [
    ("crash@serve:admit@1", "post_start"),
    ("crash@serve:ckpt@1", "mid_run"),
    ("crash@serve:finalize@1", "pre_finalize"),
]


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="crashwl", seed=13,
        groups=(ModeGroupSpec("g0", 2),
                ModeGroupSpec("g1", 2, kind="scan", input_transition=0.5)))
    generated = generate(spec)
    netlist_text = _netlist_text(generated)
    sdc_texts = {mode.name: write_mode(mode) for mode in generated.modes}
    return netlist_text, sdc_texts


@pytest.fixture(scope="module")
def reference(workload):
    return _reference_sdcs(*workload)


def _post(url, payload, timeout=15.0):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get_state(url, timeout=15.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())["state"]


@pytest.mark.parametrize("clause,phase", PHASES,
                         ids=[phase for _, phase in PHASES])
def test_kill9_then_restart_completes_byte_identically(
        tmp_path, workload, reference, clause, phase):
    netlist_text, sdc_texts = workload
    root = tmp_path / "serve"
    server = ServerHandle(root, clause, tmp_path / "server.log")
    server.start()
    assert server.alive(), "server exited during startup"
    status, body = _post(f"{server.base_url}/api/jobs",
                         {"netlist": netlist_text, "modes": sdc_texts})
    assert status == 201
    job_id = body["id"]

    # the one-shot clause must SIGKILL the server outright
    deadline = time.monotonic() + 120
    while server.alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert server.proc.poll() == -signal.SIGKILL, \
        f"server survived the {phase} kill clause"

    # the acked job survives: same root, same chaos env (the armed
    # strike count in the journal stops the clause from re-firing)
    server.start()
    assert server.alive(), "server exited during startup after the kill"
    try:
        deadline = time.monotonic() + 240
        state = ""
        while time.monotonic() < deadline:
            try:
                state = _get_state(f"{server.base_url}/api/jobs/{job_id}")
            except (urllib.error.URLError, ConnectionError, OSError):
                assert server.alive(), "server died again after restart"
                time.sleep(0.1)
                continue
            if state in ("done", "failed", "cancelled"):
                break
            time.sleep(0.1)
        assert state == "done", f"resumed job ended {state!r}"
    finally:
        server.kill()

    base = root / "jobs" / job_id / "artifacts"
    for name, want in reference.items():
        assert (base / name).read_bytes() == want, \
            f"{name} differs from the uninterrupted reference"

    # strict replay: every journaled transition legal, nothing lost or
    # duplicated across the crash
    records, torn = JobJournal(root / "journal.jsonl").recover()
    assert torn == 0
    jobs = replay(records, root, strict=True)
    job = jobs[job_id]
    assert job.state == "done"
    assert not job.anomalies
    events = [r["event"] for r in records if r.get("job") == job_id]
    assert events.count("submit") == 1
    assert events.count("finish") == 1
    assert events.count("resume") == 1  # exactly one crash, one resume
    chaos_marks = [r for r in records if r.get("event") == "chaos"]
    assert len(chaos_marks) == 1
    assert chaos_marks[0]["key"] == clause.split("@")[1]
