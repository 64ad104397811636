"""The equivalence validation reuses the 3-pass's individual-mode rows.

A merge validates its group by comparing the finished merged mode
against the individual modes.  The individual side depends only on the
individual bindings and on the merged structure, which path exceptions
(the 3-pass fixes) leave unchanged, so the validation adopts the rows
the 3-pass computed.  These tests pin the contract: every validation of
a normal merge reuses them; any other constraint added after the 3-pass
makes the validation rebuild them; the merged side is always recomputed,
so a wrong fix is still caught; and whichever path runs, the validation
reports exactly what a fresh ``check_mode_equivalence`` reports.
"""

import pytest

import repro.core.merger as merger
from repro.core import check_mode_equivalence
from repro.core.mergeability import merge_all
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.trace import Tracer, tracing
from repro.sdc import parse_mode
from repro.timing import BoundMode, RelationshipExtractor
from repro.timing.graph import ARC_CELL
from repro.workloads import figure2_modes
from repro.workloads.generator import generate


@pytest.fixture(scope="module")
def design():
    return generate(figure2_modes())


def _merge_all(design):
    """merge_all under a metrics registry and a tracer."""
    registry = MetricsRegistry()
    with collecting(registry), tracing(Tracer()) as tracer:
        run = merge_all(design.netlist, design.modes)
    validations = tracer.find("step:equivalence_validation")
    return run, registry.counter("three_pass.rows_reused"), validations


@pytest.fixture(scope="module")
def normal(design):
    return _merge_all(design)


def _fresh_mismatches(netlist, result):
    return check_mode_equivalence(
        netlist, result.context.modes, result.merged,
        clock_maps=result.clock_maps).mismatches


def _ref(name):
    return f"[get_pins {name}]" if "/" in name else f"[get_ports {name}]"


def _append(context, sdc):
    context.merged.add(parse_mode(sdc, "planted").constraints[0])


def _after_three_pass(monkeypatch, plant):
    """Run ``plant(context)`` right after every merge's 3-pass."""
    real = merger.run_three_pass

    def wrapped(context, *args, **kwargs):
        out = real(context, *args, **kwargs)
        plant(context)
        return out

    monkeypatch.setattr(merger, "run_three_pass", wrapped)


def _disable_live_arc(context):
    """set_disable_timing on a cell arc live in the merged mode and in
    the first individual mode: a structural change, not an exception."""
    graph = context.graph
    merged = BoundMode(context.netlist, context.merged, graph)
    own = context.bound_individuals()[0]
    for arc in graph.arcs:
        if arc.kind == ARC_CELL and merged.constants.arc_is_live(arc) \
                and own.constants.arc_is_live(arc):
            _append(context, f"set_disable_timing {_ref(graph.name(arc.dst))}")
            return
    raise AssertionError("no live cell arc")


def _false_path_to_timed_endpoint(context):
    """A wrong fix: set_false_path -to an endpoint the merged mode times."""
    graph = context.graph
    bound = BoundMode(context.netlist, context.merged, graph)
    rows = RelationshipExtractor(bound).endpoint_relationships()
    for (ep, _lc, _cc), states in sorted(rows.items()):
        if any(not state.is_false for state in states):
            _append(context, f"set_false_path -to {_ref(graph.name(ep))}")
            return
    raise AssertionError("no timed endpoint")


class TestNormalMerge:
    def test_every_validation_reuses_the_rows(self, normal):
        _, reused, validations = normal
        assert validations
        assert [span.attrs["rows"] for span in validations] \
            == ["reused"] * len(validations)
        assert reused == len(validations)

    def test_mismatches_equal_a_fresh_check(self, design, normal):
        run, _, _ = normal
        for outcome in run.outcomes:
            result = outcome.result
            assert result.validated
            assert result.validation_mismatches \
                == _fresh_mismatches(design.netlist, result) == []

    def test_the_result_does_not_pin_the_rows(self, normal):
        run, _, _ = normal
        for outcome in run.outcomes:
            assert outcome.result.context.individual_rows is None


class TestGuardMiss:
    def test_a_structural_change_rebuilds_the_rows(self, design,
                                                   monkeypatch):
        _after_three_pass(monkeypatch, _disable_live_arc)
        run, reused, validations = _merge_all(design)
        assert validations
        assert {span.attrs["rows"] for span in validations} == {"rebuilt"}
        assert reused == 0
        for outcome in run.outcomes:
            result = outcome.result
            assert result.validation_mismatches
            assert result.validation_mismatches \
                == _fresh_mismatches(design.netlist, result)


class TestWrongFix:
    def test_a_planted_false_path_is_reported(self, design, monkeypatch):
        _after_three_pass(monkeypatch, _false_path_to_timed_endpoint)
        run, reused, validations = _merge_all(design)
        assert {span.attrs["rows"] for span in validations} == {"reused"}
        assert reused == len(validations)
        for outcome in run.outcomes:
            result = outcome.result
            assert result.validation_mismatches
            assert result.validation_mismatches \
                == _fresh_mismatches(design.netlist, result)


class TestStandaloneCheck:
    def test_check_mode_equivalence_never_adopts_rows(self, design, normal):
        run, _, _ = normal
        registry = MetricsRegistry()
        with collecting(registry), tracing(Tracer()) as tracer:
            for outcome in run.outcomes:
                with tracer.span("audit"):
                    report = check_mode_equivalence(
                        design.netlist, outcome.result.context.modes,
                        outcome.result.merged,
                        clock_maps=outcome.result.clock_maps)
                assert report.equivalent
        assert registry.counter("three_pass.rows_reused") == 0
        assert {span.attrs["rows"] for span in tracer.find("audit")} \
            == {"rebuilt"}
