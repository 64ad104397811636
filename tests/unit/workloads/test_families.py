"""Unit tests for the adversarial workload families (``repro.workloads.families``)."""

import pytest

from repro.sdc.writer import write_mode
from repro.workloads import FAMILIES, build_family, family_names
from repro.workloads.generator import ModeGroupSpec, WorkloadSpec, generate


def _fingerprint(workload):
    """Byte-level identity of a workload: netlist + every mode SDC."""
    from repro.netlist.verilog import write_verilog

    return (write_verilog(workload.netlist),
            tuple((m.name, write_mode(m)) for m in workload.modes))


class TestRegistry:
    def test_family_names_sorted_and_match_registry(self):
        assert family_names() == tuple(sorted(FAMILIES))
        assert set(family_names()) == {
            "scan-pairs", "genclock-deep", "exception-stack",
            "lowpower-retention"}

    def test_unknown_family_raises_with_known_list(self):
        with pytest.raises(KeyError, match="scan-pairs"):
            build_family("no-such-family", 1)


class TestDeterminism:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_same_seed_same_bytes(self, family):
        assert _fingerprint(build_family(family, 11)) \
            == _fingerprint(build_family(family, 11))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_different_seeds_differ(self, family):
        prints = {_fingerprint(build_family(family, seed))
                  for seed in (1, 2, 3, 4)}
        assert len(prints) > 1, \
            f"{family} ignores its seed entirely"


class TestFamilyShapes:
    def test_scan_pairs_have_scan_and_capture_modes(self):
        workload = build_family("scan-pairs", 3)
        groups = {workload.group_of[m.name] for m in workload.modes}
        assert {"func", "shift", "atspeed"} <= groups
        shift = next(m for m in workload.modes
                     if workload.group_of[m.name] == "shift")
        assert any(c.name == "SCAN" for c in shift.clocks())

    def test_genclock_deep_chains_generated_clocks(self):
        workload = build_family("genclock-deep", 3)
        text = write_mode(workload.modes[0])
        assert "create_generated_clock" in text
        assert "-master_clock GDIV0" in text, \
            "generated clock must master another generated clock"

    def test_exception_stack_has_overlapping_exceptions(self):
        workload = build_family("exception-stack", 3)
        text = write_mode(workload.modes[0])
        assert text.count("set_false_path") \
            + text.count("set_multicycle_path") >= 3

    def test_lowpower_retention_varies_case_analysis(self):
        workload = build_family("lowpower-retention", 3)
        texts = {write_mode(m) for m in workload.modes}
        assert len(texts) == len(workload.modes), \
            "retention modes must differ in their case analysis"
        assert any("set_case_analysis" in text for text in texts), \
            "at least one mode must pin gate enables"


class TestPipelineClean:
    """Every family must be a *usable* fuzz input: parses, merges."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_merges_without_crash(self, family):
        from repro.core.mergeability import merge_all
        from repro.core.merger import MergeOptions
        from repro.diagnostics import DegradationPolicy

        workload = build_family(family, 9)
        run = merge_all(workload.netlist, workload.modes,
                        MergeOptions(policy=DegradationPolicy.LENIENT,
                                     signoff_guard=True))
        assert run.outcomes
        for outcome in run.outcomes:
            assert not outcome.error


class TestCaptureKind:
    """The generator's new ``capture`` group kind (at-speed test)."""

    def test_capture_mode_shape(self):
        spec = WorkloadSpec(
            name="cap", seed=5, n_domains=2,
            groups=(ModeGroupSpec("at", 1, kind="capture"),))
        workload = generate(spec)
        text = write_mode(workload.modes[0])
        assert "create_clock" in text and "SCAN" in text
        # At-speed capture keeps the functional clocks alongside SCAN
        # and isolates the domains instead of pinning scan_mode.
        assert "CLK0" in text
        assert "set_false_path" in text
        assert "set_case_analysis" not in text or \
            "scan_mode" not in text
