"""Crash/restart smoke driver for the serve stack.

``python -m repro.serve.smoke`` exercises the full durability story in
one self-contained run, with no test framework:

1. generate a synthetic workload and compute the reference merge
   (uninterrupted, in-process, serial);
2. start ``repro serve`` as a subprocess with a chaos kill clause
   (default ``crash@serve:ckpt@1``: SIGKILL the server mid-merge, once
   the first group is cached) appended to any inherited ``REPRO_CHAOS``;
3. submit the workload over the JSON API, retrying through chaos
   rejections (``SRV003``) and server deaths;
4. every time the server dies, restart it on the same root — resumed
   jobs must reach ``done``;
5. fetch the artifacts, validate the observability set with
   :mod:`repro.obs.validate`, and require the merged SDCs to be
   byte-identical to the reference;
6. submit a doomed job (unparseable netlist), require the SLO engine
   (``GET /api/slo``) to flip to degraded/critical on the burn-rate
   alert, and require the failed job to retain a valid per-job
   flight-recorder artifact (``artifacts/blackbox.json``).

Exit 0 on success; 1 with a problem report otherwise.  CI's chaos
matrix runs this under each pinned seed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.merger import MergeOptions
from repro.diagnostics import DegradationPolicy
from repro.netlist import read_verilog
from repro.obs import validate as obs_validate
from repro.sdc import parse_mode, write_mode
from repro.workloads.generator import ModeGroupSpec, WorkloadSpec, generate

POLL_SECONDS = 0.25


def _reference_sdcs(netlist_text: str,
                    sdc_texts: Dict[str, str]) -> Dict[str, bytes]:
    """The uninterrupted serial merge every crashed run must reproduce."""
    from repro.core.mergeability import merge_all

    policy = DegradationPolicy.LENIENT
    netlist = read_verilog(netlist_text)
    modes = [parse_mode(text, name, policy=policy)
             for name, text in sorted(sdc_texts.items())]
    run = merge_all(netlist, modes, MergeOptions(policy=policy))
    out: Dict[str, bytes] = {}
    for outcome in run.outcomes:
        if outcome.result is None:
            continue
        name = outcome.result.merged.name.replace("+", "_") + ".sdc"
        out[name] = write_mode(outcome.result.merged).encode()
    return out


class ServerHandle:
    """One `repro serve` subprocess and its base URL."""

    def __init__(self, root: Path, chaos_spec: str, log: Path):
        self.root = root
        self.chaos_spec = chaos_spec
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.base_url = ""

    def start(self) -> None:
        """Launch the server and wait for its banner.

        A server killed before it prints the banner (a chaos strike on
        a resumed job can fire first) returns with :meth:`alive` False,
        so the caller counts it as one more death.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parents[2])
        if self.chaos_spec:
            env["REPRO_CHAOS"] = self.chaos_spec
        else:
            env.pop("REPRO_CHAOS", None)
        log_fh = open(self.log, "ab")
        self.base_url = ""
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--jobs", "2",
             "serve", "--root", str(self.root), "--port", "0",
             "--runners", "2"],
            stdout=subprocess.PIPE, stderr=log_fh, env=env)
        assert self.proc.stdout is not None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode()
            if not line:
                self.proc.wait()
                return
            log_fh.write(line.encode())
            log_fh.flush()
            if "listening on http://" in line:
                self.base_url = line.split("listening on ", 1)[1] \
                    .split()[0].rstrip("/")
                return
        raise RuntimeError("server did not announce its port in time")

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        if self.alive():
            self.proc.kill()
            self.proc.wait()


def _request(url: str, payload: Optional[dict] = None,
             timeout: float = 10.0) -> Tuple[int, bytes]:
    data = None if payload is None \
        else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def run_smoke(seed: int, chaos_clause: str, keep_root: str = "",
              max_restarts: int = 8) -> int:
    spec = WorkloadSpec(
        name=f"smoke{seed}", seed=seed,
        groups=(ModeGroupSpec("g0", 2),
                ModeGroupSpec("g1", 2, kind="scan", input_transition=0.5)))
    workload = generate(spec)
    netlist_text = _netlist_text(workload)
    sdc_texts = {mode.name: write_mode(mode) for mode in workload.modes}
    print(f"smoke: workload seed={seed}, "
          f"{len(sdc_texts)} modes", flush=True)
    reference = _reference_sdcs(netlist_text, sdc_texts)
    print(f"smoke: reference merge -> {sorted(reference)}", flush=True)

    root = Path(keep_root) if keep_root \
        else Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    root.mkdir(parents=True, exist_ok=True)
    inherited = os.environ.get("REPRO_CHAOS", "")
    chaos_spec = ";".join(part for part in (inherited, chaos_clause)
                          if part)
    print(f"smoke: REPRO_CHAOS={chaos_spec!r}", flush=True)
    server = ServerHandle(root / "serve", chaos_spec, root / "server.log")
    server.start()
    print(f"smoke: server at {server.base_url}", flush=True)

    problems: List[str] = []
    restarts = 0
    job_id = ""
    payload = {"netlist": netlist_text, "modes": sdc_texts,
               "options": {"profile": True}}
    deadline = time.monotonic() + 600
    state = ""
    metrics_checked = False
    while time.monotonic() < deadline:
        if not server.alive():
            restarts += 1
            print(f"smoke: server died (restart {restarts})", flush=True)
            if restarts > max_restarts:
                problems.append(f"server died {restarts} times; giving up")
                break
            server.start()
            continue
        try:
            if not job_id:
                status, body = _request(f"{server.base_url}/api/jobs",
                                        payload)
                if status == 201:
                    job_id = json.loads(body)["id"]
                    print(f"smoke: submitted {job_id}", flush=True)
                else:
                    # chaos journal faults reject with SRV003; retry
                    print(f"smoke: submit rejected "
                          f"{status}: {body.decode()[:120]}", flush=True)
                    time.sleep(POLL_SECONDS)
                continue
            status, body = _request(
                f"{server.base_url}/api/jobs/{job_id}")
            if status != 200:
                time.sleep(POLL_SECONDS)
                continue
            state = json.loads(body)["state"]
            if not metrics_checked and state in ("running",
                                                 "checkpointing"):
                # Scrape the live telemetry while the job is in flight.
                # A failed scrape of a server its chaos clause killed
                # (given a poll to be reaped) is retried after restart.
                found = _check_metrics_endpoint(server)
                if found:
                    time.sleep(POLL_SECONDS)
                    if not server.alive():
                        continue
                problems.extend(found)
                metrics_checked = True
            if state in ("done", "failed", "cancelled"):
                break
            time.sleep(POLL_SECONDS)
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(POLL_SECONDS)  # server dying mid-request
    else:
        problems.append("timed out waiting for the job")

    if state != "done" and not problems:
        problems.append(f"job finished in state {state!r}, wanted 'done'")
    if chaos_clause.startswith("crash@serve:") and restarts == 0 \
            and not problems:
        problems.append("kill clause armed but the server never died")

    if not problems and not metrics_checked:
        # The job outran the poll loop; the endpoint must still serve.
        problems.extend(_check_metrics_endpoint(server))
    if not problems:
        problems.extend(_check_artifacts(server, job_id, reference))
    if not problems:
        problems.extend(_check_slo_and_blackbox(server))
    server.kill()

    if problems:
        for problem in problems:
            print(f"smoke: FAIL {problem}", flush=True)
        print(f"smoke: root kept at {root}", flush=True)
        return 1
    print(f"smoke: PASS after {restarts} server death(s); "
          f"artifacts byte-identical and valid", flush=True)
    return 0


def _check_artifacts(server: ServerHandle, job_id: str,
                     reference: Dict[str, bytes]) -> List[str]:
    problems: List[str] = []
    status, body = _request(
        f"{server.base_url}/api/jobs/{job_id}/artifacts")
    if status != 200:
        return [f"artifact listing failed with {status}"]
    names = json.loads(body)["artifacts"]

    def fetch(name: str) -> bytes:
        code, data = _request(
            f"{server.base_url}/api/jobs/{job_id}/artifacts/{name}")
        if code != 200:
            problems.append(f"artifact {name} fetch failed with {code}")
            return b""
        return data

    for name, want in sorted(reference.items()):
        if name not in names:
            problems.append(f"merged SDC {name} missing from artifacts")
            continue
        got = fetch(name)
        if got != want:
            problems.append(
                f"merged SDC {name} differs from the uninterrupted "
                f"reference ({len(got)} vs {len(want)} bytes)")
    validators = {
        "trace.jsonl": obs_validate.validate_trace,
        "metrics.json": obs_validate.validate_metrics,
        "decisions.json": obs_validate.validate_decisions,
        "report.html": obs_validate.validate_html,
        "profile.json": obs_validate.validate_profile,
    }
    for name, validator in validators.items():
        if name not in names:
            problems.append(f"artifact {name} missing")
            continue
        for issue in validator(fetch(name).decode()):
            problems.append(f"{name}: {issue}")
    return problems


def _check_metrics_endpoint(server: ServerHandle) -> List[str]:
    """GET /api/metrics must expose every serve./exec./cache. contract
    row as Prometheus text — scrapeable while jobs run."""
    from repro.obs.metrics import METRIC_CONTRACT, _prom_name

    try:
        status, body = _request(f"{server.base_url}/api/metrics")
    except (urllib.error.URLError, ConnectionError, OSError) as exc:
        return [f"/api/metrics scrape failed: {exc}"]
    if status != 200:
        return [f"/api/metrics returned {status}"]
    text = body.decode()
    problems = []
    for name in sorted(METRIC_CONTRACT):
        kind = METRIC_CONTRACT[name][0]
        if name.partition(".")[0] not in ("serve", "exec", "cache"):
            continue
        # Exact TYPE line: counters carry the Prometheus _total suffix.
        prom = _prom_name(name) + ("_total" if kind == "counter" else "")
        if f"# TYPE {prom} {kind}" not in text:
            problems.append(f"/api/metrics is missing the "
                            f"'# TYPE {prom} {kind}' line for {name}")
    return problems


def _check_slo_and_blackbox(server: ServerHandle) -> List[str]:
    """Force-fail a job; the SLO burn-rate alert must trip and the
    failed job must retain a valid flight-recorder artifact."""
    problems: List[str] = []
    status, body = _request(f"{server.base_url}/api/health")
    if status != 200 or "slo" not in json.loads(body):
        problems.append("/api/health does not embed the SLO state")
    payload = {"netlist": "module broken ( this is not verilog",
               "modes": {"m0": "create_clock -name CK -period 10"}}
    status, body = _request(f"{server.base_url}/api/jobs", payload)
    if status != 201:
        return problems + [f"force-fail submit rejected with {status}: "
                           f"{body.decode()[:120]}"]
    job_id = json.loads(body)["id"]
    print(f"smoke: submitted doomed job {job_id}", flush=True)
    deadline = time.monotonic() + 120
    state = ""
    while time.monotonic() < deadline:
        status, body = _request(f"{server.base_url}/api/jobs/{job_id}")
        if status == 200:
            state = json.loads(body)["state"]
            if state in ("done", "failed", "cancelled"):
                break
        time.sleep(POLL_SECONDS)
    if state != "failed":
        return problems + [f"doomed job ended {state!r}, "
                           f"wanted 'failed'"]
    slo_state = ""
    while time.monotonic() < deadline:
        status, body = _request(f"{server.base_url}/api/slo")
        if status != 200:
            return problems + [f"/api/slo returned {status}"]
        slo = json.loads(body)
        if slo.get("kind") != "repro-slo" \
                or slo.get("schema_version") != 1:
            return problems + ["/api/slo payload is not repro-slo v1"]
        slo_state = slo["state"]
        if slo_state in ("degraded", "critical"):
            job_success = next((s for s in slo["slos"]
                                if s["name"] == "job-success"), {})
            if job_success.get("state") not in ("degraded", "critical"):
                problems.append("overall SLO alarmed but job-success "
                                "did not")
            break
        time.sleep(POLL_SECONDS)
    if slo_state not in ("degraded", "critical"):
        problems.append(f"/api/slo state stayed {slo_state!r} after a "
                        f"forced job failure")
    else:
        print(f"smoke: SLO flipped to {slo_state}", flush=True)
    status, body = _request(
        f"{server.base_url}/api/jobs/{job_id}/artifacts")
    if status != 200:
        return problems + [f"failed-job artifact listing "
                           f"returned {status}"]
    names = json.loads(body)["artifacts"]
    if "blackbox.json" not in names:
        return problems + ["failed job retained no blackbox.json"]
    status, body = _request(
        f"{server.base_url}/api/jobs/{job_id}/artifacts/blackbox.json")
    if status != 200:
        return problems + [f"blackbox.json fetch returned {status}"]
    for issue in obs_validate.validate_blackbox(body.decode()):
        problems.append(f"blackbox.json: {issue}")
    return problems


def _netlist_text(workload) -> str:
    from repro.workloads.export import export_workload

    with tempfile.TemporaryDirectory() as tmp:
        paths = export_workload(workload, tmp)
        return Path(paths["netlist"]).read_text()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke",
        description="serve-stack crash/restart smoke test")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--chaos-clause", default="crash@serve:ckpt@1",
                        help="chaos clause appended to REPRO_CHAOS for "
                             "the server (default kills it once the "
                             "first group is cached; '' disables)")
    parser.add_argument("--root", default="",
                        help="keep service state here instead of a "
                             "temporary directory")
    parser.add_argument("--max-restarts", type=int, default=8)
    args = parser.parse_args(argv)
    return run_smoke(args.seed, args.chaos_clause, keep_root=args.root,
                     max_restarts=args.max_restarts)


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(main())
