"""Unit tests for the shared seeded-RNG helper (``repro.workloads.seeding``).

Two properties matter and both are pinned here:

* process stability — no derivation may route through ``hash()``,
  which is salted per-process by ``PYTHONHASHSEED``; the cross-process
  test below fails if anyone reintroduces it.
* no ambient input — generators read their seed from their arguments
  only, so no environment variable changes a generated byte.
"""

import os
import subprocess
import sys

from repro.fuzz.generator import generate_case
from repro.netlist.verilog import write_verilog
from repro.workloads.designs import paper_suite
from repro.workloads.generator import generate
from repro.workloads.seeding import stable_rng, stable_seed


class TestStableSeed:
    def test_deterministic_within_process(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a", 1) != stable_seed("b", 1)

    def test_rng_streams_match_seed(self):
        assert stable_rng("x", 3).random() \
            == stable_rng("x", 3).random()

    def test_stable_across_hash_randomization(self):
        """The whole point: ``PYTHONHASHSEED`` must not matter."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from repro.workloads.seeding import stable_seed; "
                "print(stable_seed('fuzz-case', 7, 'scan-pairs', 3))")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                           "src")
        values = set()
        for hash_seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", code, src],
                capture_output=True, text=True, env=env, check=True)
            values.add(out.stdout.strip())
        assert len(values) == 1, \
            f"stable_seed varies with PYTHONHASHSEED: {values}"


class TestGeneratorsIgnoreEnvironment:
    """Generated bytes depend on the generator's arguments only: setting
    any of the former ``REPRO_BENCH_*`` reseed knobs changes none of
    them, so a fuzz ``--seed`` and a design letter always mean the same
    workload."""

    FORMER_KNOBS = tuple(f"REPRO_BENCH_{knob}"
                         for knob in ("SEED", "SCALE", "JOBS"))

    @staticmethod
    def _generated():
        case = generate_case(11, 0, "scan-pairs")
        design_b = generate(paper_suite()["B"].spec).netlist
        return (case.netlist_text, case.mode_texts), write_verilog(design_b)

    def test_former_reseed_knobs_change_no_byte(self, monkeypatch):
        for name in self.FORMER_KNOBS:
            monkeypatch.delenv(name, raising=False)
        unset_case, unset_design_b = self._generated()
        for name in self.FORMER_KNOBS:
            monkeypatch.setenv(name, "5")
        case, design_b = self._generated()
        assert case == unset_case
        assert design_b == unset_design_b
