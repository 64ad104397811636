"""Integration tests for ``repro-merge fuzz`` — the full find → shrink
→ bundle → replay → triage loop, plus the hardened ``REPRO_CHAOS``
input validation (EXE009).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.fuzz import BREAK_ENV, ORACLE_NAMES
from repro.obs.validate import validate_fuzz


@pytest.fixture(autouse=True)
def clean_env(monkeypatch, tmp_path):
    monkeypatch.delenv(BREAK_ENV, raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.chdir(tmp_path)


class TestCleanRun:
    def test_exit_zero_and_validated_artifact(self, capsys):
        code = main(["fuzz", "--seed", "7", "--max-cases", "3",
                     "--corpus", "corpus", "-o", "fuzz.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

        payload_text = Path("fuzz.json").read_text()
        assert validate_fuzz(payload_text) == []
        payload = json.loads(payload_text)
        assert payload["summary"]["cases"] == 3
        assert tuple(payload["oracles"]) == ORACLE_NAMES

    def test_validator_cli_accepts_artifact(self, capsys):
        from repro.obs.validate import main as validate_main

        assert main(["fuzz", "--seed", "7", "--max-cases", "2",
                     "--corpus", "corpus", "-o", "fuzz.json"]) == 0
        assert validate_main(["--fuzz", "fuzz.json"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_determinism_across_runs(self):
        for out in ("a.json", "b.json"):
            assert main(["fuzz", "--seed", "11", "--max-cases", "4",
                         "--corpus", f"corpus-{out}", "-o", out]) == 0
        a = json.loads(Path("a.json").read_text())
        b = json.loads(Path("b.json").read_text())
        assert a["cases"] == b["cases"]

    def test_unknown_family_exits_two(self, capsys):
        code = main(["fuzz", "--families", "bogus",
                     "--max-cases", "1"])
        assert code == 2
        assert "FZZ001" in capsys.readouterr().err


class TestInjectedBug:
    """With ``REPRO_FUZZ_BREAK`` set, the harness must find the
    violation, shrink it, write a standalone repro bundle, and the
    bundle must replay and triage on its own."""

    @pytest.fixture
    def broken(self, monkeypatch):
        monkeypatch.setenv(BREAK_ENV, "checkpoint")

    def test_full_loop(self, broken, monkeypatch, capsys):
        code = main(["fuzz", "--seed", "7", "--max-cases", "2",
                     "--families", "scan-pairs",
                     "--corpus", "corpus", "-o", "fuzz.json"])
        assert code == 1
        out = capsys.readouterr().out
        assert "repro bundle:" in out
        assert "repro-merge doctor" in out

        bundles = [p for p in Path("corpus").iterdir() if p.is_dir()]
        assert bundles
        bundle = bundles[0]
        assert bundle.name.startswith("checkpoint-")
        for required in ("netlist.v", "repro.json", "blackbox.json"):
            assert (bundle / required).exists()

        # Replays standalone while the bug is present...
        assert main(["fuzz", "--replay", str(bundle)]) == 1
        assert "REPRODUCED" in capsys.readouterr().out

        # ...reports clean once the bug is gone...
        monkeypatch.delenv(BREAK_ENV)
        assert main(["fuzz", "--replay", str(bundle)]) == 0
        assert "clean" in capsys.readouterr().out

        # ...and the bundled blackbox is doctor-triageable.
        assert main(["doctor", str(bundle / "blackbox.json")]) == 0
        report = capsys.readouterr().out
        assert "fuzz-violation" in report
        assert "checkpoint" in report

    def test_fuzz_json_records_violation(self, broken):
        main(["fuzz", "--seed", "7", "--max-cases", "1",
              "--families", "scan-pairs", "--no-shrink",
              "--corpus", "corpus", "-o", "fuzz.json"])
        payload_text = Path("fuzz.json").read_text()
        assert validate_fuzz(payload_text) == []
        payload = json.loads(payload_text)
        assert payload["summary"]["violations"] >= 1
        flagged = [case for case in payload["cases"]
                   if case["violations"]]
        assert flagged
        assert flagged[0]["violations"][0]["oracle"] == "checkpoint"

    def test_replay_of_garbage_exits_two(self, tmp_path, capsys):
        assert main(["fuzz", "--replay", str(tmp_path / "nope")]) == 2
        assert "FZZ001" in capsys.readouterr().err


class TestChaosSpecValidation:
    """Satellite pin: a typo'd REPRO_CHAOS is EXE009 + exit 2 on any
    verb, before any engine runs — never a silent no-op."""

    def test_malformed_chaos_exits_two_with_exe009(self, monkeypatch,
                                                   capsys):
        monkeypatch.setenv("REPRO_CHAOS", "bogus@*@1")
        code = main(["fuzz", "--max-cases", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "[EXE009]" in err
        assert "REPRO_CHAOS" in err
        assert "Traceback" not in err

    def test_malformed_clause_rejected_on_merge_verb(self, monkeypatch,
                                                     capsys, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS", "crash@")
        netlist = tmp_path / "x.v"
        netlist.write_text("module x (clk);\n  input clk;\nendmodule\n")
        mode = tmp_path / "m.sdc"
        mode.write_text("create_clock -name CK -period 10 "
                        "[get_ports clk]\n")
        code = main(["merge", str(netlist), str(mode),
                     "-o", str(tmp_path / "out")])
        assert code == 2
        assert "[EXE009]" in capsys.readouterr().err

    def test_well_formed_chaos_still_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed:1:0.0")
        assert main(["fuzz", "--max-cases", "1",
                     "--families", "scan-pairs",
                     "--corpus", "corpus", "-o", "fuzz.json"]) == 0
