"""Unit tests for the delta-debugging shrinker.

The headline pin (a satellite of this PR): shrinking is fully
deterministic — same seed + same failing workload produces a
byte-identical minimized repro bundle, and the minimized case still
fails the same oracle.
"""

import pytest

from repro.fuzz import BREAK_ENV
from repro.fuzz.corpus import write_bundle
from repro.fuzz.generator import generate_case
from repro.fuzz.oracles import OracleBattery
from repro.fuzz.shrinker import _ddmin, shrink_case


class TestDdmin:
    def test_minimizes_to_single_culprit(self):
        evals = []

        def fails(subset):
            evals.append(tuple(subset))
            return 3 in subset

        assert _ddmin(list(range(8)), fails) == [3]

    def test_minimizes_interacting_pair(self):
        def fails(subset):
            return 2 in subset and 5 in subset

        assert sorted(_ddmin(list(range(8)), fails)) == [2, 5]

    def test_non_failing_input_returned_unchanged(self):
        items = [1, 2, 3]
        assert _ddmin(items, lambda subset: False) == items

    def test_budget_bounds_evaluations(self):
        calls = []

        def fails(subset):
            calls.append(1)
            return 7 in subset

        _ddmin(list(range(64)), fails, budget=10)
        assert len(calls) <= 11  # initial check + budget

    def test_deterministic_evaluation_order(self):
        def trace():
            order = []

            def fails(subset):
                order.append(tuple(subset))
                return 5 in subset

            _ddmin(list(range(10)), fails)
            return order

        assert trace() == trace()


@pytest.fixture
def broken_equivalence(monkeypatch):
    monkeypatch.setenv(BREAK_ENV, "equivalence")


class TestShrinkCase:
    def test_shrunk_case_still_fails_same_oracle(
            self, broken_equivalence):
        case = generate_case(7, 0, "scan-pairs")
        battery = OracleBattery()
        assert not battery.run(case, oracles=("equivalence",)).ok
        minimized = shrink_case(case, "equivalence", battery)
        # Strictly smaller or equal, never larger.
        assert len(minimized.mode_texts) <= len(case.mode_texts)
        assert sum(len(t) for _, t in minimized.mode_texts) \
            <= sum(len(t) for _, t in case.mode_texts)
        verdict = battery.run(minimized, oracles=("equivalence",))
        assert [v.oracle for v in verdict.violations] == ["equivalence"]

    def test_non_failing_case_returned_unchanged(self, monkeypatch):
        monkeypatch.delenv(BREAK_ENV, raising=False)
        case = generate_case(7, 0, "scan-pairs")
        assert shrink_case(case, "equivalence") == case

    def test_minimized_bundle_is_byte_identical(
            self, broken_equivalence, tmp_path, monkeypatch):
        """Same seed + same failing workload -> the whole repro bundle,
        blackbox.json included, is byte-for-byte reproducible."""
        monkeypatch.chdir(tmp_path)

        def produce():
            case = generate_case(7, 0, "scan-pairs")
            battery = OracleBattery()
            verdict = battery.run(case, oracles=("equivalence",))
            minimized = shrink_case(case, "equivalence", battery)
            bundle = write_bundle("corpus", minimized,
                                  verdict.violations[0])
            files = {p.name: p.read_bytes()
                     for p in bundle.iterdir()}
            for p in bundle.iterdir():
                p.unlink()
            bundle.rmdir()
            return files

        first, second = produce(), produce()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], \
                f"bundle file {name} is not reproducible"
