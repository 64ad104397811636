"""Property tests: the tag-propagation engine vs the path-enumeration
oracle, plus structural invariants of the timing graph machinery."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from circuits import build_random_circuit, build_random_mode, circuit_params

from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry
from repro.timing import (
    BoundMode,
    RelationshipExtractor,
    build_graph,
    endpoint_states_by_enumeration,
    named_endpoint_rows,
)


def assert_engine_matches_enumeration(bound):
    """For every endpoint and clock pair, the relationship states the tag
    engine computes equal the set of per-path states obtained by
    enumerating every path."""
    rows = RelationshipExtractor(bound).endpoint_relationships()
    graph = bound.graph
    by_endpoint = {}
    for (ep, lc, cc), states in rows.items():
        by_endpoint.setdefault(ep, {})[(lc, cc)] = states
    for ep in graph.endpoint_nodes():
        oracle = endpoint_states_by_enumeration(bound, ep)
        assert by_endpoint.get(ep, {}) == oracle, (
            f"endpoint {graph.name(ep)}: engine="
            f"{by_endpoint.get(ep)}, oracle={oracle}")


class TestTagEngineAgainstOracle:
    @given(circuit_params, st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_endpoint_states_match_enumeration(self, params, mode_seed):
        """The tag engine against the definitional ground truth."""
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode = build_random_mode(netlist, mode_seed, "m")
        assert_engine_matches_enumeration(BoundMode(netlist, mode))

    @given(circuit_params, st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_clock_exception_modes_match_enumeration(self, params,
                                                     mode_seed):
        """Clock-selected exceptions never change once active, so their
        tags cross arcs as whole inert sets; ``-through`` and ``-to`` pin
        exceptions, edge-qualified ones and XOR gates send other tags of
        the same propagation down the per-tag branch.  Both branches
        must keep the ground truth."""
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode = build_random_mode(netlist, mode_seed, "m",
                                 clock_exceptions=True)
        assert_engine_matches_enumeration(BoundMode(netlist, mode))

    def test_clock_exception_modes_take_both_branches(self):
        """The strategy above reaches propagations that push some tags
        in whole sets and others one by one."""
        for seed in range(100):
            netlist = build_random_circuit(seed, 8, 4, seed % 2 == 0)
            mode = build_random_mode(netlist, seed, "m",
                                     clock_exceptions=True)
            bound = BoundMode(netlist, mode)
            registry = MetricsRegistry()
            with observing(metrics=registry):
                RelationshipExtractor(bound).endpoint_relationships()
            bulk = registry.counter("profile.tag_bulk_pushes")
            tracks_edges = any(exc.has_edge_qualifiers
                               for exc in bound.exceptions)
            if tracks_edges and \
                    0 < bulk < registry.counter("profile.tag_propagations"):
                return
        pytest.fail("no drawn mode mixes whole-set and per-tag pushes")

    @given(circuit_params, st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_pair_rows_union_to_endpoint_rows(self, params, mode_seed):
        """Collapsing pass-2 rows over startpoints gives pass-1 rows."""
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode = build_random_mode(netlist, mode_seed, "m")
        bound = BoundMode(netlist, mode)
        extractor = RelationshipExtractor(bound)
        endpoint_rows = extractor.endpoint_relationships()
        pair_rows = extractor.pair_relationships()

        collapsed = {}
        for (sp, ep, lc, cc), states in pair_rows.items():
            key = (ep, lc, cc)
            collapsed[key] = collapsed.get(key, frozenset()) | states
        assert collapsed == endpoint_rows


class TestPairRowsPerEndpoint:
    @given(circuit_params, st.integers(0, 10_000), st.integers(0, 10_000),
           st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_endpoint_rows_do_not_depend_on_the_endpoint_set(
            self, params, mode_seed, structure_seed, subset_seed, aligned):
        """``pair_relationships(S)`` restricted to an endpoint ``e`` of
        ``S`` equals ``pair_relationships({e})``: propagation stays inside
        the union of the endpoints' backward cones.  The 3-pass memoizes
        its pass-2 rows per endpoint on this."""
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode = build_random_mode(netlist, mode_seed, "m")
        bound = BoundMode(netlist, mode)
        if aligned:
            structure = BoundMode(netlist, build_random_mode(
                netlist, structure_seed, "s", with_exceptions=False))
            extractor = RelationshipExtractor(
                bound, structure=structure,
                clock_map={name: name for name in mode.clock_names()})
        else:
            extractor = RelationshipExtractor(bound)
        endpoints = bound.graph.endpoint_nodes()
        rng = random.Random(subset_seed)
        subset = set(rng.sample(endpoints, rng.randint(1, len(endpoints))))
        rows = extractor.pair_relationships(subset)
        for ep in subset:
            assert extractor.pair_relationships({ep}) == {
                key: states for key, states in rows.items() if key[1] == ep}


class TestGraphInvariants:
    @given(circuit_params)
    @settings(max_examples=60, deadline=None)
    def test_topological_order_is_valid(self, params):
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        graph = build_graph(netlist)
        assert sorted(graph.topo_order) == list(range(graph.node_count))
        for arc in graph.arcs:
            assert graph.topo_rank[arc.src] < graph.topo_rank[arc.dst]

    @given(circuit_params)
    @settings(max_examples=60, deadline=None)
    def test_fanin_fanout_are_mirrors(self, params):
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        graph = build_graph(netlist)
        for node in range(graph.node_count):
            for arc in graph.fanout[node]:
                assert arc.src == node
                assert arc in graph.fanin[arc.dst]


class TestConstantInvariants:
    @given(circuit_params, st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_live_arc_endpoints_not_constant(self, params, mode_seed):
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode = build_random_mode(netlist, mode_seed, "m",
                                 with_exceptions=False)
        bound = BoundMode(netlist, mode)
        for arc in bound.graph.arcs:
            if bound.constants.arc_is_live(arc):
                assert not bound.constants.is_constant(arc.src)
                assert not bound.constants.is_constant(arc.dst)

    @given(circuit_params, st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_constants_consistent_with_functions(self, params, mode_seed):
        """Every combinational output's constant equals its function
        evaluated over the input constants."""
        from repro.netlist.cells import LOGIC_X

        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode = build_random_mode(netlist, mode_seed, "m",
                                 with_exceptions=False)
        bound = BoundMode(netlist, mode)
        graph = bound.graph
        for inst in netlist.instances:
            if inst.is_sequential:
                continue
            for out in inst.output_pins():
                node = graph.node(out.full_name)
                if node in bound.case_values:
                    continue  # forced, not computed
                inputs = {
                    p.name: bound.constants.value(graph.node(p.full_name))
                    for p in inst.input_pins()
                }
                assert bound.constants.value(node) \
                    == inst.cell.evaluate(out.name, inputs)
