"""Unit tests for the fuzz loop (config, dedup, payload shape)."""

import pytest

from repro.fuzz import BREAK_ENV, FUZZ_KIND, FUZZ_SCHEMA_VERSION
from repro.fuzz.corpus import load_index
from repro.fuzz.generator import fuzz_families
from repro.fuzz.runner import FuzzConfig, FuzzRunner


@pytest.fixture(autouse=True)
def clean_env(monkeypatch, tmp_path):
    monkeypatch.delenv(BREAK_ENV, raising=False)
    monkeypatch.chdir(tmp_path)


class TestConfig:
    def test_default_families_are_all(self):
        assert FuzzConfig().resolved_families() == fuzz_families()

    def test_unknown_family_raises_with_known_list(self):
        config = FuzzConfig(families=("nope",))
        with pytest.raises(ValueError, match="scan-pairs"):
            config.resolved_families()


class TestRun:
    def test_clean_run_payload(self):
        config = FuzzConfig(seed=3, max_cases=3, corpus_dir="corpus")
        outcome = FuzzRunner(config).run()
        payload = outcome.payload
        assert payload["kind"] == FUZZ_KIND
        assert payload["schema_version"] == FUZZ_SCHEMA_VERSION
        assert payload["seed"] == 3
        assert payload["summary"]["cases"] == 3
        assert payload["summary"]["violations"] == 0
        assert outcome.new_bundles == []
        assert len(payload["cases"]) == 3

    def test_same_seed_same_verdicts(self):
        def run():
            config = FuzzConfig(seed=5, max_cases=4,
                                corpus_dir="corpus")
            return FuzzRunner(config).run().payload["cases"]

        assert run() == run()

    def test_round_robin_covers_families(self):
        config = FuzzConfig(seed=1, max_cases=len(fuzz_families()),
                            corpus_dir="corpus")
        payload = FuzzRunner(config).run().payload
        assert {case["family"] for case in payload["cases"]} \
            == set(fuzz_families())

    def test_violation_produces_bundle_and_dedups(self, monkeypatch):
        monkeypatch.setenv(BREAK_ENV, "permutation")
        config = FuzzConfig(seed=3, max_cases=2, corpus_dir="corpus",
                            families=("scan-pairs",),
                            oracles=("permutation",), shrink=False)
        outcome = FuzzRunner(config).run()
        summary = outcome.payload["summary"]
        assert summary["violations"] >= 1
        assert summary["new_bundles"] >= 1
        assert summary["new_bundles"] + summary["duplicates"] \
            == summary["violations"]
        index = load_index("corpus")
        assert len(index) == summary["new_bundles"]
        for entry in index.values():
            assert entry["oracle"] == "permutation"

        # A second run over the same corpus finds only duplicates.
        again = FuzzRunner(config).run()
        assert again.payload["summary"]["new_bundles"] == 0
        assert again.payload["summary"]["duplicates"] \
            == again.payload["summary"]["violations"]
