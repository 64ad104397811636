"""Unit tests for deterministic fuzz-case generation."""

import os
import subprocess
import sys

import pytest

from repro.fuzz.generator import (
    MUTATE_FAMILY,
    FuzzCase,
    fuzz_families,
    generate_case,
)
from repro.workloads import family_names


class TestFamilies:
    def test_fuzz_families_are_workload_families_plus_mutator(self):
        assert fuzz_families() == tuple(
            sorted((*family_names(), MUTATE_FAMILY)))

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            generate_case(0, 0, "no-such-family")


class TestDeterminism:
    @pytest.mark.parametrize("family", fuzz_families())
    def test_same_triple_same_case(self, family):
        assert generate_case(7, 3, family) == generate_case(7, 3, family)

    def test_seed_index_and_family_all_matter(self):
        base = generate_case(7, 3, "scan-pairs")
        assert base != generate_case(8, 3, "scan-pairs")
        assert base != generate_case(7, 4, "scan-pairs")
        assert base != generate_case(7, 3, "genclock-deep")

    def test_stable_across_hash_randomization(self):
        """Cases must be identical in every process — corpus replay and
        ``--seed`` reruns depend on it."""
        code = ("import sys, hashlib; sys.path.insert(0, sys.argv[1]); "
                "from repro.fuzz.generator import generate_case; "
                "c = generate_case(7, 0, 'sdc-mutate'); "
                "print(hashlib.sha256(repr("
                "(c.netlist_text, c.mode_texts)).encode())"
                ".hexdigest())")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                           "src")
        digests = set()
        for hash_seed in ("0", "7", "123456"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env.pop("REPRO_FUZZ_BREAK", None)
            out = subprocess.run(
                [sys.executable, "-c", code, src],
                capture_output=True, text=True, env=env, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1, \
            f"generate_case varies with PYTHONHASHSEED: {digests}"


class TestMutator:
    def test_mutated_case_differs_from_some_base(self):
        mutated = generate_case(7, 0, MUTATE_FAMILY)
        assert mutated.family == MUTATE_FAMILY
        bases = {generate_case(7, 0, family).mode_texts
                 for family in family_names()}
        assert mutated.mode_texts not in bases, \
            "the mutator produced an unmutated workload"

    def test_mutations_vary_with_index(self):
        texts = {generate_case(7, index, MUTATE_FAMILY).mode_texts
                 for index in range(4)}
        assert len(texts) == 4


class TestFuzzCase:
    def test_helpers(self):
        case = FuzzCase(case_id="x-0001", family="x", root_seed=1,
                        case_seed=2, netlist_text="module m; endmodule",
                        mode_texts=(("a", "create_clock ..."),
                                    ("b", "create_clock ...")))
        assert case.mode_names == ("a", "b")
        assert case.modes_dict() == {"a": "create_clock ...",
                                     "b": "create_clock ..."}
        slim = case.with_modes((("a", "x"),))
        assert slim.mode_names == ("a",)
        assert slim.case_id == case.case_id
        assert case.mode_names == ("a", "b"), "with_modes must copy"
