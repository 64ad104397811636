"""Integration tests for the repro-merge CLI."""

import os

import pytest

from repro.cache import ResultCache
from repro.cli import main

NETLIST_V = """
module chip (clk, din, dout);
  input clk, din;
  output dout;
  wire q1, n1;
  DFF stage1 (.D(din), .CP(clk), .Q(q1));
  INV logic1 (.A(q1), .Z(n1));
  DFF stage2 (.D(n1), .CP(clk), .Q(dout));
endmodule
"""

MODE_A = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -to [get_pins stage2/D]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -from [get_pins stage1/CP]
"""


@pytest.fixture
def files(tmp_path, monkeypatch):
    # These runs assert exit codes; an ambient seeded chaos plan (the
    # chaos CI job's) would add EXE warnings.
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    netlist = tmp_path / "chip.v"
    netlist.write_text(NETLIST_V)
    mode_a = tmp_path / "modeA.sdc"
    mode_a.write_text(MODE_A)
    mode_b = tmp_path / "modeB.sdc"
    mode_b.write_text(MODE_B)
    return tmp_path, netlist, mode_a, mode_b


class TestMergeCommand:
    def test_merge_writes_sdc(self, files, capsys):
        tmp, netlist, mode_a, mode_b = files
        out = tmp / "out"
        code = main(["merge", str(netlist), str(mode_a), str(mode_b),
                     "-o", str(out)])
        assert code == 0
        written = list(out.glob("*.sdc"))
        assert len(written) == 1
        text = written[0].read_text()
        assert "create_clock" in text
        assert "set_false_path" in text
        captured = capsys.readouterr().out
        assert "modes: 2 -> 1" in captured

    def test_json_report(self, files):
        tmp, netlist, mode_a, mode_b = files
        out = tmp / "out"
        code = main(["merge", str(netlist), str(mode_a), str(mode_b),
                     "-o", str(out), "--json"])
        assert code == 0
        import json

        record = json.loads((out / "merge_report.json").read_text())
        assert record["merged_modes"] == 1
        assert record["groups"][0]["result"]["ok"]

    def test_merged_output_reparses(self, files):
        tmp, netlist, mode_a, mode_b = files
        out = tmp / "out"
        main(["merge", str(netlist), str(mode_a), str(mode_b),
              "-o", str(out)])
        from repro.sdc import parse_mode

        text = next(out.glob("*.sdc")).read_text()
        assert len(parse_mode(text)) >= 2


class TestAuditCommand:
    def test_audit_accepts_good_candidate(self, files, tmp_path):
        tmp, netlist, mode_a, mode_b = files
        candidate = tmp_path / "cand.sdc"
        candidate.write_text(
            "create_clock -name CK -period 10 [get_ports clk]\n"
            "set_false_path -to [get_pins stage2/D]\n")
        code = main(["audit", str(netlist), str(mode_a), str(mode_b),
                     "--candidate", str(candidate)])
        assert code == 0

    def test_audit_rejects_bad_candidate(self, files, tmp_path, capsys):
        tmp, netlist, mode_a, mode_b = files
        candidate = tmp_path / "cand.sdc"
        # Times the path both modes falsify.
        candidate.write_text(
            "create_clock -name CK -period 10 [get_ports clk]\n")
        code = main(["audit", str(netlist), str(mode_a), str(mode_b),
                     "--candidate", str(candidate)])
        assert code == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out


class TestReportCommand:
    def test_report_prints_graph(self, files, capsys):
        tmp, netlist, mode_a, mode_b = files
        code = main(["report", str(netlist), str(mode_a), str(mode_b)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mergeability graph: 2 modes, 1 mergeable pairs" in out


class TestDiagnosticsArtifact:
    def test_json_has_schema_version_and_policy(self, files, tmp_path):
        tmp, netlist, mode_a, mode_b = files
        diag_path = tmp_path / "diag.json"
        code = main(["--policy", "lenient", "--diagnostics", str(diag_path),
                     "merge", str(netlist), str(mode_a), str(mode_b),
                     "-o", str(tmp / "out")])
        assert code == 0
        import json

        record = json.loads(diag_path.read_text())
        assert record["schema_version"] == 1
        assert record["policy"] == "lenient"
        assert record["diagnostics"] == []


#: An out-of-tolerance clock uncertainty makes mode C non-mergeable with
#: A and B, so resume runs always contain two analysis groups.
MODE_A_CKPT = MODE_A + "set_clock_uncertainty 0.1 [get_clocks CK]\n"
MODE_B_CKPT = MODE_B + "set_clock_uncertainty 0.1 [get_clocks CK]\n"
MODE_C_CKPT = """
create_clock -name CK -period 10 [get_ports clk]
set_clock_uncertainty 5 [get_clocks CK]
"""

#: Script for the kill-resume test: runs ``merge_all`` with a result
#: cache but SIGKILLs its own process when the second group (mode c)
#: starts, simulating a run dying mid-flight after completing the first.
KILLED_DRIVER = """\
import os, signal, sys

import repro.core.mergeability as mergeability
from repro.cache import ResultCache
from repro.core.merger import MergeOptions
from repro.netlist import read_verilog
from repro.sdc import parse_mode

netlist_path, a_path, b_path, c_path, cache_root = sys.argv[1:6]
netlist = read_verilog(open(netlist_path).read())
modes = [parse_mode(open(path).read(), name)
         for path, name in zip((a_path, b_path, c_path), ("a", "b", "c"))]

real_merge = mergeability.merge_modes

def killing_merge(netlist, modes, name=None, options=None):
    if any(m.name == "c" for m in modes):
        os.kill(os.getpid(), signal.SIGKILL)
    return real_merge(netlist, modes, name=name, options=options)

mergeability.merge_modes = killing_merge
mergeability.merge_all(netlist, modes, MergeOptions(),
                       cache=ResultCache.open(cache_root))
"""


class TestCheckpointResume:
    """A killed ``merge`` resumes from its ``--cache`` root."""

    @pytest.fixture
    def ckpt_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        netlist = tmp_path / "chip.v"
        netlist.write_text(NETLIST_V)
        paths = []
        for name, text in (("a", MODE_A_CKPT), ("b", MODE_B_CKPT),
                           ("c", MODE_C_CKPT)):
            path = tmp_path / f"{name}.sdc"
            path.write_text(text)
            paths.append(path)
        return tmp_path, netlist, paths

    def _merge_args(self, netlist, paths, out, cache=None):
        args = ["merge", str(netlist)] + [str(p) for p in paths] + \
            ["-o", str(out)]
        if cache is not None:
            args += ["--cache", str(cache)]
        return args

    def test_rerun_restores_all_groups(self, ckpt_files, capsys):
        tmp, netlist, paths = ckpt_files
        cache = tmp / "cache"
        assert main(self._merge_args(netlist, paths, tmp / "out1",
                                     cache)) == 0
        assert len(list((cache / "groups").glob("*.json"))) == 2
        capsys.readouterr()
        assert main(self._merge_args(netlist, paths, tmp / "out2",
                                     cache)) == 0
        captured = capsys.readouterr()
        assert "[restored]" in captured.out
        assert "CAC006" in captured.err
        first = {p.name: p.read_bytes() for p in (tmp / "out1").glob("*.sdc")}
        second = {p.name: p.read_bytes() for p in (tmp / "out2").glob("*.sdc")}
        assert first == second

    def _kill_at_group_c(self, tmp, netlist, paths, cache, chaos=""):
        """Run merge_all on ``cache`` in a subprocess SIGKILLed when
        group ``c`` starts, after group {a, b} has finished."""
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        driver = tmp / "killed_driver.py"
        driver.write_text(KILLED_DRIVER)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        env.pop("REPRO_CHAOS", None)
        if chaos:
            env["REPRO_CHAOS"] = chaos
        proc = subprocess.run(
            [sys.executable, str(driver), str(netlist)]
            + [str(p) for p in paths] + [str(cache)],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL

    def _resume_matches_fresh(self, tmp, netlist, paths, cache, capsys,
                              exit_code=0):
        """Resume on ``cache``; returns its stderr once its merged SDCs
        are checked byte-identical to an uninterrupted uncached run."""
        assert main(self._merge_args(netlist, paths, tmp / "fresh")) == 0
        capsys.readouterr()
        code = main(self._merge_args(netlist, paths, tmp / "resumed", cache))
        assert code == exit_code
        captured = capsys.readouterr()
        fresh = {p.name: p.read_bytes()
                 for p in (tmp / "fresh").glob("*.sdc")}
        resumed = {p.name: p.read_bytes()
                   for p in (tmp / "resumed").glob("*.sdc")}
        assert fresh == resumed
        assert len(fresh) == 2  # merged a+b, individual c
        return captured.err

    def test_killed_run_resumes_byte_identically(self, ckpt_files, capsys):
        """A run SIGKILLed mid-flight resumes from its cache and
        produces byte-identical outputs to an uninterrupted run."""
        tmp, netlist, paths = ckpt_files
        cache = tmp / "cache"
        self._kill_at_group_c(tmp, netlist, paths, cache)
        # The first group survived the kill; the second never completed.
        assert len(list((cache / "groups").glob("*.json"))) == 1
        err = self._resume_matches_fresh(tmp, netlist, paths, cache, capsys)
        assert "CAC006" in err  # group {a, b} was replayed

    def test_group_whose_store_was_torn_recomputes(self, ckpt_files,
                                                   capsys):
        """A finished group whose store landed torn (the writer died
        mid-write, ``cache-torn``) is quarantined by the resume
        (``CAC002``, exit 1), which recomputes it byte-identically."""
        tmp, netlist, paths = ckpt_files
        cache = tmp / "cache"
        self._kill_at_group_c(tmp, netlist, paths, cache,
                              chaos="cache-torn@cache:store:group@1")
        # The scan's three verdicts are one pack.
        assert len(list((cache / "pairs").glob("*.json"))) == 1
        assert len(list((cache / "groups").glob("*.json"))) == 1
        err = self._resume_matches_fresh(tmp, netlist, paths, cache, capsys,
                                         exit_code=1)
        assert "CAC002" in err
        assert "CAC006" not in err  # nothing to replay: {a, b} recomputed
        assert len(list((cache / "quarantine").glob("*.json"))) == 1
        assert ResultCache.open(cache).verify() == {"checked": 3,
                                                    "quarantined": 0}

    def test_checkpoint_option_is_gone(self, ckpt_files, capsys):
        # The result cache is the one resume mechanism: --checkpoint is
        # an unknown option now, rejected like any other (exit 2).
        tmp, netlist, paths = ckpt_files
        with pytest.raises(SystemExit) as exc:
            main(self._merge_args(netlist, paths, tmp / "out")
                 + ["--checkpoint", str(tmp / "run.ckpt")])
        assert exc.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert not (tmp / "run.ckpt").exists()


class TestArgumentErrorRouting:
    """Exit-2 argument rejections belong on stderr, never stdout."""

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0", "merge", "n.v", "a.sdc"],
        ["--jobs", "-2", "merge", "n.v", "a.sdc"],
        ["--jobs", "two", "merge", "n.v", "a.sdc"],
        ["--jobs", "0", "report", "n.v", "a.sdc"],
    ], ids=lambda argv: " ".join(argv[:4]))
    def test_bad_count_arguments_exit_2_via_stderr(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "expected an integer >= 1" in captured.err
        assert captured.out == ""

    def test_serve_verb_is_gone(self, capsys):
        # Merging is one on-demand run: the batch service's verb is an
        # unknown choice now, rejected like any other (exit 2).
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0"])
        assert exc.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "repro-merge" in out
        assert "journal=" not in out and "slo=" not in out

    def test_trace_and_metrics_artifacts_validate(self, files, capsys):
        from repro.obs.validate import validate_metrics, validate_trace

        tmp, netlist, mode_a, mode_b = files
        trace = tmp / "trace.jsonl"
        metrics = tmp / "metrics.json"
        code = main(["--trace", str(trace), "--metrics", str(metrics),
                     "merge", str(netlist), str(mode_a), str(mode_b),
                     "-o", str(tmp / "out")])
        assert code == 0
        assert validate_trace(trace.read_text()) == []
        assert validate_metrics(metrics.read_text()) == []
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        assert f"wrote {metrics}" in out

    def test_trace_covers_every_pipeline_phase(self, files):
        tmp, netlist, mode_a, mode_b = files
        trace = tmp / "trace.jsonl"
        assert main(["--trace", str(trace), "merge", str(netlist),
                     str(mode_a), str(mode_b), "-o", str(tmp / "out")]) == 0
        import json

        names = {json.loads(line)["name"]
                 for line in trace.read_text().splitlines()[1:]}
        assert {"run", "parse", "mergeability", "merge"} <= names
        assert any(n.startswith("group:") for n in names)
        assert any(n.startswith("step:") for n in names)
        assert any(n.startswith("three_pass:") for n in names)

    def test_chrome_trace_format(self, files):
        tmp, netlist, mode_a, mode_b = files
        trace = tmp / "trace.json"
        assert main(["--trace", str(trace), "--trace-format", "chrome",
                     "merge", str(netlist), str(mode_a), str(mode_b),
                     "-o", str(tmp / "out")]) == 0
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)

    def test_merge_provenance_flag(self, files, capsys):
        tmp, netlist, mode_a, mode_b = files
        code = main(["merge", str(netlist), str(mode_a), str(mode_b),
                     "-o", str(tmp / "out"), "--provenance"])
        assert code == 0
        out = capsys.readouterr().out
        assert "provenance" in out
        assert "<= " in out
        assert "union" in out

    def test_report_provenance_flag(self, files, capsys):
        tmp, netlist, mode_a, mode_b = files
        code = main(["report", str(netlist), str(mode_a), str(mode_b),
                     "--provenance"])
        assert code == 0
        out = capsys.readouterr().out
        assert "provenance" in out
        assert "<= " in out

    def test_explain_artifact_validates(self, files, capsys):
        from repro.obs.validate import validate_decisions

        tmp, netlist, mode_a, mode_b = files
        decisions = tmp / "decisions.json"
        code = main(["--explain", str(decisions), "merge", str(netlist),
                     str(mode_a), str(mode_b), "-o", str(tmp / "out")])
        assert code == 0
        text = decisions.read_text()
        assert validate_decisions(text) == []
        import json

        record = json.loads(text)
        kinds = record["by_kind"]
        assert kinds.get("run") == 1
        assert "mergeability.pair" in kinds
        assert f"wrote {decisions}" in capsys.readouterr().out

    def test_report_html_artifact_validates(self, files, capsys):
        from repro.obs.validate import validate_html

        tmp, netlist, mode_a, mode_b = files
        report = tmp / "report.html"
        code = main(["--report-html", str(report), "merge", str(netlist),
                     str(mode_a), str(mode_b), "-o", str(tmp / "out")])
        assert code == 0
        text = report.read_text()
        assert validate_html(text) == []
        # --report-html force-enables the full stack even with no other
        # observability flag: all sections present.
        for heading in ("Run summary", "Trace", "Metrics",
                        "Decision graph"):
            assert f"<h2>{heading}</h2>" in text, heading
        assert f"wrote {report}" in capsys.readouterr().out


class TestExplainCommand:
    def test_explain_prints_causal_chain(self, files, capsys):
        tmp, netlist, mode_a, mode_b = files
        code = main(["explain", str(netlist), str(mode_a), str(mode_b),
                     "--query", "pair:modeA,modeB"])
        assert code == 0
        out = capsys.readouterr().out
        assert "explain 'pair:modeA,modeB'" in out
        assert "[mergeability.pair] pair:modeA,modeB" in out
        assert "-> mergeable" in out

    def test_explain_kind_query_nests_under_frames(self, files, capsys):
        tmp, netlist, mode_a, mode_b = files
        code = main(["explain", str(netlist), str(mode_a), str(mode_b),
                     "--query", "kind:merge.mode"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[run]" in out
        assert "[merge.group]" in out
        assert "[merge.mode]" in out

    def test_explain_multiple_queries(self, files, capsys):
        tmp, netlist, mode_a, mode_b = files
        code = main(["explain", str(netlist), str(mode_a), str(mode_b),
                     "--query", "mode:modeA",
                     "--query", "kind:merge.step"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("explain '") == 2

    def test_unmatched_query_exits_one(self, files, capsys):
        tmp, netlist, mode_a, mode_b = files
        code = main(["explain", str(netlist), str(mode_a), str(mode_b),
                     "--query", "pair:no,such"])
        assert code == 1
        assert "no matching decisions" in capsys.readouterr().out

    def test_explain_requires_a_query(self, files):
        tmp, netlist, mode_a, mode_b = files
        with pytest.raises(SystemExit) as exc:
            main(["explain", str(netlist), str(mode_a), str(mode_b)])
        assert exc.value.code == 2


class TestProfileFlag:
    def _merge(self, files, out, extra):
        tmp, netlist, mode_a, mode_b = files
        assert main(extra + ["merge", str(netlist), str(mode_a),
                             str(mode_b), "-o", str(out)]) == 0

    def _sdc_bytes(self, out):
        return {path.name: path.read_bytes()
                for path in sorted(out.glob("*.sdc"))}

    def test_profile_writes_valid_artifact(self, files, capsys):
        import json

        from repro.obs.validate import validate_profile

        tmp, netlist, mode_a, mode_b = files
        profile = tmp / "profile.json"
        self._merge(files, tmp / "out", ["--profile", str(profile)])
        assert f"wrote {profile}" in capsys.readouterr().out
        text = profile.read_text()
        assert validate_profile(text) == []
        record = json.loads(text)
        assert record["total_seconds"] > 0.0
        assert {"parse", "mergeability"} <= set(record["phases"])
        assert record["counters"].get("profile.mock_merges", 0) > 0
        assert any(span["name"] == "run" for span in record["spans"])

    def test_profiled_output_is_byte_identical_at_any_jobs(self, files):
        import json

        plain = files[0] / "out-plain"
        self._merge(files, plain, [])
        profiled = files[0] / "out-prof"
        self._merge(files, profiled,
                    ["--profile", str(files[0] / "p1.json")])
        parallel = files[0] / "out-prof-j2"
        self._merge(files, parallel,
                    ["--jobs", "2", "--profile",
                     str(files[0] / "p2.json")])
        want = self._sdc_bytes(plain)
        assert want
        assert self._sdc_bytes(profiled) == want
        assert self._sdc_bytes(parallel) == want
        # The parallel profile folded worker payloads back in.
        record = json.loads((files[0] / "p2.json").read_text())
        assert record["worker_seconds"] > 0.0

    def test_profile_section_reaches_html_report(self, files):
        tmp, netlist, mode_a, mode_b = files
        report = tmp / "report.html"
        self._merge(files, tmp / "out",
                    ["--profile", str(tmp / "profile.json"),
                     "--report-html", str(report)])
        html = report.read_text()
        assert "<h2>Profile</h2>" in html
        assert "Hot-loop counters" in html
