"""Integration tests for the always-on flight recorder's flush paths.

The recorder's contract: a clean run writes nothing, while every
abnormal exit — watchdog budget trip, SIGTERM mid-merge, uncaught
crash — leaves a valid ``blackbox.json`` whose
``repro-merge doctor`` report names the failing phase.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.blackbox import load_blackbox
from repro.obs.validate import validate_blackbox

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
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_BLACKBOX", raising=False)
    netlist = tmp_path / "chip.v"
    netlist.write_text(NETLIST_V)
    mode_a = tmp_path / "a.sdc"
    mode_a.write_text(MODE_A)
    mode_b = tmp_path / "b.sdc"
    mode_b.write_text(MODE_B)
    return tmp_path, netlist, [mode_a, mode_b]


def _merge(netlist, paths, out, *extra, pre=()):
    """Run the merge verb; ``pre`` holds global flags, ``extra`` merge
    flags."""
    return main(list(pre) + ["merge", str(netlist)]
                + [str(p) for p in paths] + ["-o", str(out)]
                + list(extra))


#: The global flags the recorder must flush the same forensics under,
#: keyed by a short test id (none, explain, trace, both); a bare
#: argument is a file name in the test's directory.
FLAG_SETS = {
    "nil": (),
    "exp": ("--explain", "decisions.json"),
    "trc": ("--trace", "trace.jsonl"),
    "all": ("--trace", "trace.jsonl", "--explain", "decisions.json"),
}


def _assert_valid(path):
    assert path.is_file(), f"expected a flushed blackbox at {path}"
    assert validate_blackbox(path.read_text()) == []
    return load_blackbox(path)


class TestCleanRuns:
    def test_clean_merge_writes_no_blackbox(self, files, capsys):
        tmp, netlist, paths = files
        out = tmp / "out"
        assert _merge(netlist, paths, out) == 0
        assert not (out / "blackbox.json").exists()
        assert "blackbox" not in capsys.readouterr().err


class TestBudgetTrip:
    @pytest.mark.parametrize("flags", FLAG_SETS.values(),
                             ids=FLAG_SETS.keys())
    def test_budget_trip_flushes_a_valid_blackbox(self, files, capsys,
                                                  flags):
        tmp, netlist, paths = files
        out = tmp / "out"
        pre = [flag if flag.startswith("--") else str(tmp / flag)
               for flag in flags]
        code = _merge(netlist, paths, out,
                      "--budget-seconds", "0.00000001", pre=pre)
        assert code == 2
        captured = capsys.readouterr()
        assert "wrote" in captured.err and "doctor" in captured.err
        payload = _assert_valid(out / "blackbox.json")
        assert payload["reason"]["kind"] == "budget"
        assert "budget" in payload["reason"]["detail"]
        assert payload["failing_phase"] == \
            "merge.step step:clock_refinement"
        assert payload["frame_seconds"]
        assert not [e for e in payload["events"]
                    if e["kind"].startswith("span.")]

    def test_doctor_names_the_failing_phase(self, files, capsys):
        tmp, netlist, paths = files
        out = tmp / "out"
        assert _merge(netlist, paths, out,
                      "--budget-seconds", "0.00000001") == 2
        capsys.readouterr()
        assert main(["doctor", str(out / "blackbox.json")]) == 0
        report = capsys.readouterr().out
        assert "forensic report" in report
        assert "reason: budget" in report
        assert "failing phase:" in report
        assert "causal chain to failure:" in report
        chain = report.split("causal chain to failure:\n")[1]
        links = [line.split("-> ", 1)[1]
                 for line in chain.split("\n\n")[0].splitlines()]
        assert [link.split()[0] for link in links] == [
            "[merge.group]", "[merge.mode]", "[merge.step]", "[budget]"]
        assert links[2].startswith("[merge.step] step:clock_refinement")

    def test_doctor_json_mode_round_trips(self, files, capsys):
        tmp, netlist, paths = files
        out = tmp / "out"
        assert _merge(netlist, paths, out,
                      "--budget-seconds", "0.00000001") == 2
        capsys.readouterr()
        assert main(["doctor", str(out / "blackbox.json"),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"]["kind"] == "budget"


class TestTargetOverrides:
    def test_blackbox_off_disables_the_flush(self, files, capsys):
        tmp, netlist, paths = files
        out = tmp / "out"
        assert _merge(netlist, paths, out,
                      "--budget-seconds", "0.00000001",
                      pre=("--blackbox", "off")) == 2
        capsys.readouterr()
        assert not (out / "blackbox.json").exists()

    def test_blackbox_flag_redirects_the_flush(self, files, capsys):
        tmp, netlist, paths = files
        target = tmp / "elsewhere" / "bbx.json"
        assert _merge(netlist, paths, tmp / "out",
                      "--budget-seconds", "0.00000001",
                      pre=("--blackbox", str(target))) == 2
        capsys.readouterr()
        _assert_valid(target)
        assert not (tmp / "out" / "blackbox.json").exists()

    def test_env_override_redirects_the_flush(self, files, monkeypatch,
                                              capsys):
        tmp, netlist, paths = files
        target = tmp / "env-bbx.json"
        monkeypatch.setenv("REPRO_BLACKBOX", str(target))
        assert _merge(netlist, paths, tmp / "out", "--budget-seconds",
                      "0.00000001") == 2
        capsys.readouterr()
        _assert_valid(target)


class TestDoctorErrors:
    def test_doctor_rejects_garbage_with_doc001(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        assert main(["doctor", str(path)]) == 2
        assert "DOC001" in capsys.readouterr().err

    def test_doctor_rejects_a_foreign_artifact(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"kind": "repro-trace",
                                    "schema_version": 1}))
        assert main(["doctor", str(path)]) == 2
        assert "DOC001" in capsys.readouterr().err


#: Driver for the SIGTERM test: run the real CLI but send ourselves
#: SIGTERM from inside merge_all, mid-run.  The installed handler must
#: flush the blackbox and then die with the default signal disposition.
SIGTERM_DRIVER = """\
import os, signal, sys

import repro.cli as cli

real_merge_all = cli.merge_all

def merge_then_die(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGTERM)
    return real_merge_all(*args, **kwargs)

cli.merge_all = merge_then_die
sys.exit(cli.main(sys.argv[1:]))
"""


class TestSigterm:
    def test_sigterm_mid_merge_flushes_then_dies_by_signal(self, files):
        import repro

        tmp, netlist, paths = files
        driver = tmp / "sigterm_driver.py"
        driver.write_text(SIGTERM_DRIVER)
        out = tmp / "out"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        env.pop("REPRO_CHAOS", None)
        env.pop("REPRO_BLACKBOX", None)
        proc = subprocess.run(
            [sys.executable, str(driver), "merge", str(netlist)]
            + [str(p) for p in paths] + ["-o", str(out)],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGTERM, proc.stderr.decode()
        assert "blackbox.json" in proc.stderr.decode()
        payload = _assert_valid(out / "blackbox.json")
        assert payload["reason"] == {"kind": "signal",
                                     "detail": "SIGTERM"}
        assert any(e.get("kind") == "signal"
                   for e in payload["events"])
