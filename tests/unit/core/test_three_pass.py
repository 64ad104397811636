"""Unit tests for the 3-pass comparison primitives and refiner."""

from repro.core import classify, combine_strictest, effective_state
from repro.core.three_pass import (
    ThreePassRefiner,
    canon,
    conclusive,
    constraints_for_target,
    individual_label,
    states_label,
)
from repro.core.steps import MergeContext
from repro.core import merge_clocks
from repro.sdc import (
    ObjectRef,
    PathSpec,
    SetFalsePath,
    SetMaxDelay,
    SetMulticyclePath,
)
from repro.timing import FALSE, RelState, VALID

V = frozenset([VALID])
F = frozenset([FALSE])
FV = frozenset([VALID, FALSE])
MCP2 = RelState(mcp_setup=2)
M2 = frozenset([MCP2])
EMPTY = frozenset()
SPEC = PathSpec(to_refs=(ObjectRef.pins("r/D"),))


class TestPrimitives:
    def test_canon_drops_false(self):
        assert canon(FV) == V
        assert canon(F) == EMPTY

    def test_conclusive(self):
        assert conclusive(V) and conclusive(F) and conclusive(EMPTY)
        assert not conclusive(FV)

    def test_effective_strictest_v_beats_mcp(self):
        assert effective_state([V, M2]) == VALID

    def test_effective_all_mcp(self):
        m3 = frozenset([RelState(mcp_setup=3)])
        assert effective_state([M2, m3]) == MCP2

    def test_effective_false_plus_valid_is_valid(self):
        # Paper Table 3 row (rB/CP, rY/D): FP in A, V in B -> must time.
        assert effective_state([F, V]) == VALID

    def test_effective_all_false_is_none(self):
        assert effective_state([F, F]) is None
        assert effective_state([F, EMPTY]) is None

    def test_effective_inconclusive(self):
        assert effective_state([FV, V]) is False

    def test_combine_max_delay(self):
        a = RelState(max_delay=5.0)
        b = RelState(max_delay=3.0)
        assert combine_strictest([a, b]).max_delay == 3.0
        assert combine_strictest([a, VALID]).max_delay is None

    def test_combine_min_delay(self):
        a = RelState(min_delay=1.0)
        b = RelState(min_delay=2.0)
        assert combine_strictest([a, b]).min_delay == 2.0


class TestClassify:
    def test_match_cases(self):
        assert classify([V, V], V) == "M"
        assert classify([F, F], F) == "M"
        assert classify([F, F], EMPTY) == "M"   # not-timed == false
        assert classify([EMPTY, EMPTY], EMPTY) == "M"
        assert classify([F, V], V) == "M"       # effective V

    def test_mismatch_cases(self):
        assert classify([F, F], V) == "X"       # Table 2 row rX/D
        assert classify([M2, M2], V) == "X"
        assert classify([V, V], EMPTY) == "X"   # superset violation shape

    def test_ambiguous_cases(self):
        assert classify([FV, V], V) == "A"      # Table 2 rows rY/D, rZ/D
        assert classify([V, V], FV) == "A"


class TestFixSynthesis:
    def test_false_path_fix(self):
        fixes = constraints_for_target(None, V, SPEC)
        assert len(fixes) == 1 and isinstance(fixes[0], SetFalsePath)

    def test_nothing_needed(self):
        assert constraints_for_target(None, EMPTY, SPEC) == []
        assert constraints_for_target(VALID, V, SPEC) == []

    def test_mcp_fix(self):
        fixes = constraints_for_target(MCP2, V, SPEC)
        assert len(fixes) == 1
        assert isinstance(fixes[0], SetMulticyclePath)
        assert fixes[0].multiplier == 2 and fixes[0].setup

    def test_max_delay_fix(self):
        target = RelState(max_delay=4.0)
        fixes = constraints_for_target(target, V, SPEC)
        assert isinstance(fixes[0], SetMaxDelay) and fixes[0].value == 4.0

    def test_under_timing_unfixable(self):
        assert constraints_for_target(VALID, EMPTY, SPEC) is None

    def test_over_constrained_merged_unfixable(self):
        assert constraints_for_target(VALID, M2, SPEC) is None


class TestLabels:
    def test_states_label(self):
        assert states_label(EMPTY) == "-"
        assert states_label(F) == "FP"
        assert "V" in states_label(FV) and "FP" in states_label(FV)

    def test_individual_label_effective(self):
        assert individual_label([F, V]) == "V"
        assert individual_label([F, F]) == "FP"
        assert individual_label([EMPTY, EMPTY]) == "-"
        assert individual_label([FV, V]) == "V, FP"


class TestRefinerCheckMode:
    def test_check_mode_reports_instead_of_fixing(self, figure1, cs6_modes):
        mode_a, mode_b = cs6_modes
        ctx = MergeContext(figure1, [mode_a, mode_b])
        merge_clocks(ctx)
        refiner = ThreePassRefiner(ctx, apply_fixes=False)
        outcome = refiner.run()
        assert outcome.residuals          # mismatches reported
        assert not outcome.added          # nothing fixed
        assert len(ctx.merged) == 1       # only the clock

    def test_apply_mode_converges(self, figure1, cs6_modes):
        mode_a, mode_b = cs6_modes
        ctx = MergeContext(figure1, [mode_a, mode_b])
        merge_clocks(ctx)
        outcome = ThreePassRefiner(ctx).run()
        assert outcome.clean
        assert len(outcome.added) == 3    # the paper's CSTR1-CSTR3
        assert outcome.iterations >= 2    # fix pass + clean verify pass


class TestResidualRecord:
    """A mismatch the fix loop cannot repair is recorded once: as a
    residual of the outcome, a conflict of the step report, a
    ``refinement.residual`` decision and the ``three_pass.residuals``
    count."""

    def test_unfixable_mismatch_is_one_residual(self, figure1):
        from repro.core.three_pass import run_three_pass
        from repro.obs.context import observing
        from repro.obs.explain import DecisionLedger
        from repro.obs.metrics import MetricsRegistry
        from repro.sdc import parse_mode

        clock = "create_clock -p 10 -name clkA [get_port clk1]\n"
        ctx = MergeContext(figure1, [parse_mode(clock, "A"),
                                     parse_mode(clock, "B")])
        merge_clocks(ctx)
        # A false path no mode has: the merged mode under-times rX/D.
        ctx.merged.add(
            parse_mode("set_false_path -to rX/D\n", "x").constraints[0])
        ledger = DecisionLedger(strict_kinds=True)
        metrics = MetricsRegistry(strict_names=True)
        with observing(decisions=ledger, metrics=metrics):
            report, outcome = run_three_pass(ctx)
        assert len(outcome.residuals) == 1
        residual = outcome.residuals[0]
        decisions = ledger.by_kind("refinement.residual")
        assert [d.verdict for d in decisions] == ["unresolved"]
        assert decisions[0].subject == f"residual:{residual}"
        assert residual in [c.reason for c in report.conflicts]
        assert metrics.counter("three_pass.residuals") == 1
        assert not outcome.clean
