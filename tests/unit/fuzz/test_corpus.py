"""Unit tests for failure signatures, repro bundles, and the corpus index."""

import json

import pytest

from repro.fuzz import BREAK_ENV, BUNDLE_KIND, FUZZ_SCHEMA_VERSION
from repro.fuzz.corpus import (
    MANIFEST_NAME,
    failure_signature,
    load_bundle,
    load_index,
    replay_bundle,
    save_index,
    write_bundle,
)
from repro.fuzz.generator import FuzzCase, generate_case
from repro.fuzz.oracles import OracleBattery, Violation


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(BREAK_ENV, raising=False)


class TestFailureSignature:
    def test_masks_numbers_and_workload_seeds(self):
        a = Violation("jobs", "group ['m1'] differs at line 17 "
                      "in scanpairs_s7")
        b = Violation("jobs", "group ['m1'] differs at line 99 "
                      "in scanpairs_s123")
        assert failure_signature(a) == failure_signature(b)

    def test_oracle_and_shape_distinguish(self):
        base = Violation("jobs", "group ['m1'] differs")
        other_oracle = Violation("cache", "group ['m1'] differs")
        other_detail = Violation("jobs", "partition differs")
        assert failure_signature(base) \
            != failure_signature(other_oracle)
        assert failure_signature(base) \
            != failure_signature(other_detail)

    def test_signature_names_the_oracle(self):
        signature = failure_signature(Violation("checkpoint", "x"))
        assert signature.startswith("checkpoint-")


def _small_case():
    return FuzzCase(
        case_id="t-0000", family="scan-pairs", root_seed=1,
        case_seed=2,
        netlist_text="module t (clk);\n  input clk;\nendmodule\n",
        mode_texts=(
            ("m0", "create_clock -name CK -period 10 "
                   "[get_ports clk]\n"),
            ("m1", "create_clock -name CK -period 10 "
                   "[get_ports clk]\n"),
        ))


class TestBundleRoundTrip:
    def test_write_then_load(self, tmp_path):
        violation = Violation("jobs", "byte mismatch in group ['m0']",
                              mode_names=("m0",))
        bundle = write_bundle(tmp_path / "corpus", _small_case(),
                              violation)
        assert (bundle / "netlist.v").exists()
        assert (bundle / "m0.sdc").exists()
        assert (bundle / "m1.sdc").exists()
        assert (bundle / "blackbox.json").exists()

        case, manifest = load_bundle(bundle)
        assert case.mode_texts == _small_case().mode_texts
        assert case.netlist_text == _small_case().netlist_text
        assert manifest["kind"] == BUNDLE_KIND
        assert manifest["schema_version"] == FUZZ_SCHEMA_VERSION
        assert manifest["oracle"] == "jobs"
        assert "--replay" in manifest["command"]

    def test_bundle_blackbox_is_doctor_loadable(self, tmp_path):
        from repro.obs.blackbox import load_blackbox

        bundle = write_bundle(tmp_path / "corpus", _small_case(),
                              Violation("cache", "warm differs"))
        payload = load_blackbox(bundle / "blackbox.json")
        assert payload["reason"]["kind"] == "fuzz-violation"
        assert "cache" in payload["reason"]["detail"]

    def test_load_rejects_missing_bundle(self, tmp_path):
        with pytest.raises(ValueError, match=MANIFEST_NAME):
            load_bundle(tmp_path / "nope")

    def test_load_rejects_wrong_kind(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="kind"):
            load_bundle(root)

    def test_load_rejects_unknown_oracle(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"kind": BUNDLE_KIND, "oracle": "vibes"}))
        with pytest.raises(ValueError, match="oracle"):
            load_bundle(root)

    def test_load_rejects_missing_mode_file(self, tmp_path):
        bundle = write_bundle(tmp_path / "corpus", _small_case(),
                              Violation("jobs", "x"))
        (bundle / "m1.sdc").unlink()
        with pytest.raises(ValueError, match="incomplete"):
            load_bundle(bundle)


class TestReplay:
    def test_replay_reports_fixed_when_clean(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv(BREAK_ENV, "permutation")
        case = generate_case(7, 0, "scan-pairs")
        battery = OracleBattery()
        verdict = battery.run(case, oracles=("permutation",))
        bundle = write_bundle(tmp_path / "corpus", case,
                              verdict.violations[0])

        reproduced, detail = replay_bundle(bundle)
        assert reproduced and detail

        monkeypatch.delenv(BREAK_ENV)
        reproduced, detail = replay_bundle(bundle)
        assert not reproduced
        assert "no longer reproduces" in detail


class TestIndex:
    def test_round_trip(self, tmp_path):
        entries = {"jobs-abc123": {"oracle": "jobs",
                                   "case_id": "scan-pairs-0001"}}
        save_index(tmp_path / "corpus", entries)
        assert load_index(tmp_path / "corpus") == entries

    def test_missing_or_garbage_index_is_empty(self, tmp_path):
        assert load_index(tmp_path / "nope") == {}
        (tmp_path / "index.json").write_text("{not json")
        assert load_index(tmp_path) == {}
