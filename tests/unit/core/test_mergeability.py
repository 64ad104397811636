"""Unit tests for mergeability analysis and greedy clique cover."""

import gc
import weakref

import networkx as nx
import pytest

from repro.core import (
    build_mergeability_graph,
    greedy_clique_cover,
    merge_all,
    pair_mergeable,
)
from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry
from repro.sdc import parse_mode
from repro.workloads.families import build_family

CLK = "create_clock -name c -period 10 [get_ports clk]\n"


class TestPairMergeable:
    def test_identical_modes_mergeable(self, pipeline_netlist):
        a = parse_mode(CLK, "A")
        b = parse_mode(CLK, "B")
        ok, reason = pair_mergeable(pipeline_netlist, a, b)
        assert ok, reason

    def test_out_of_tolerance_drive_not_mergeable(self, pipeline_netlist):
        a = parse_mode(CLK + "set_input_transition 0.1 [get_ports in1]", "A")
        b = parse_mode(CLK + "set_input_transition 0.5 [get_ports in1]", "B")
        ok, reason = pair_mergeable(pipeline_netlist, a, b)
        assert not ok
        assert "tolerance" in reason

    def test_non_uniquifiable_mcp_not_mergeable(self, pipeline_netlist):
        a = parse_mode(CLK + "set_multicycle_path 2 -to [get_pins rB/D]", "A")
        b = parse_mode(CLK, "B")
        ok, reason = pair_mergeable(pipeline_netlist, a, b)
        assert not ok

    def test_droppable_false_path_still_mergeable(self, pipeline_netlist):
        a = parse_mode(CLK + "set_false_path -to [get_pins rB/D]", "A")
        b = parse_mode(CLK, "B")
        ok, reason = pair_mergeable(pipeline_netlist, a, b)
        assert ok, reason


class TestGreedyCliqueCover:
    def test_cover_of_disjoint_cliques(self):
        graph = nx.Graph()
        # Two cliques: {a,b,c} and {x,y}.
        graph.add_edges_from([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y")])
        cover = greedy_clique_cover(graph)
        assert sorted(map(sorted, cover)) == [["a", "b", "c"], ["x", "y"]]

    def test_isolated_nodes_are_singletons(self):
        graph = nx.Graph()
        graph.add_nodes_from(["a", "b"])
        cover = greedy_clique_cover(graph)
        assert sorted(map(tuple, cover)) == [("a",), ("b",)]

    def test_cliques_are_actual_cliques(self):
        graph = nx.Graph()
        graph.add_edges_from([("a", "b"), ("b", "c")])  # path, no triangle
        cover = greedy_clique_cover(graph)
        for clique in cover:
            for i, u in enumerate(clique):
                for v in clique[i + 1:]:
                    assert graph.has_edge(u, v)

    def test_cover_is_partition(self):
        graph = nx.gnp_random_graph(12, 0.4, seed=7)
        graph = nx.relabel_nodes(graph, {i: f"m{i}" for i in graph.nodes})
        cover = greedy_clique_cover(graph)
        flat = [m for clique in cover for m in clique]
        assert sorted(flat) == sorted(graph.nodes)


class TestAnalysisAndMergeAll:
    def test_graph_and_groups(self, pipeline_netlist):
        modes = [
            parse_mode(CLK + "set_input_transition 0.1 [get_ports in1]", "A"),
            parse_mode(CLK + "set_input_transition 0.1 [get_ports in1]", "B"),
            parse_mode(CLK + "set_input_transition 0.9 [get_ports in1]", "C"),
        ]
        analysis = build_mergeability_graph(pipeline_netlist, modes)
        assert analysis.mergeable("A", "B")
        assert not analysis.mergeable("A", "C")
        assert analysis.reason("A", "C")
        assert sorted(map(sorted, analysis.groups)) == [["A", "B"], ["C"]]
        assert "mergeability graph" in analysis.summary()

    def test_merge_all_counts(self, pipeline_netlist):
        modes = [
            parse_mode(CLK + "set_input_transition 0.1 [get_ports in1]", "A"),
            parse_mode(CLK + "set_input_transition 0.1 [get_ports in1]", "B"),
            parse_mode(CLK + "set_input_transition 0.9 [get_ports in1]", "C"),
        ]
        run = merge_all(pipeline_netlist, modes)
        assert run.individual_count == 3
        assert run.merged_count == 2
        assert run.reduction_percent == pytest.approx(100 * 1 / 3)
        assert len(run.merged_modes()) == 2
        assert "->" in run.summary()

    def test_merged_modes_include_singletons(self, pipeline_netlist):
        modes = [parse_mode(CLK, "A")]
        run = merge_all(pipeline_netlist, modes)
        assert [m.name for m in run.merged_modes()] == ["A"]

    def test_only_pairs_the_tables_leave_are_mock_merged(
            self, pipeline_netlist):
        modes = [
            parse_mode(CLK + "set_input_transition 0.1 [get_ports in1]", "A"),
            parse_mode(CLK + "set_input_transition 0.1 [get_ports in1]", "B"),
            parse_mode(CLK + "set_input_transition 0.9 [get_ports in1]", "C"),
        ]
        registry = MetricsRegistry()
        with observing(metrics=registry):
            build_mergeability_graph(pipeline_netlist, modes)
        assert registry.counter("mergeability.pairs_scanned") == 3
        assert registry.counter("profile.mock_merges") == 1


class TestLifetime:
    def test_netlist_and_modes_are_freed_after_merge_all(self):
        design = build_family("genclock-deep", 0)
        refs = [weakref.ref(design.netlist)]
        refs.extend(weakref.ref(mode) for mode in design.modes)
        run = merge_all(design.netlist, design.modes)
        assert run.outcomes
        del design, run
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
