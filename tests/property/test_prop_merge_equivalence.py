"""Property test of the paper's central guarantee.

For random circuits and random mode pairs, merge the modes and verify —
by full path enumeration, independently of all the machinery under test —
that for every concrete path the merged mode's state equals the union
semantics of the individual modes:

* a path is timed in the merged mode iff some individual mode times it;
* when timed, the merged state is the strictest requirement among the
  modes that time it (V beats MCP; smaller MCP beats larger).
"""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from circuits import build_random_circuit, build_random_mode, circuit_params

from repro.core import MergeOptions, combine_strictest, merge_modes
from repro.timing import BoundMode, enumerate_paths, path_state
from repro.timing.paths import feasible_edge_pairs


def _path_states(bound, clock_map=None):
    """(path-nodes, lc, cc, from-edge, end-edge) -> state.

    Keys are expanded per feasible edge pair so edge-qualified exceptions
    compare per path *instance* — a ``-fall_to`` false path in one mode
    still leaves the rising instance timed, and the merged mode must time
    it.  Edge feasibility depends only on the shared netlist, so keys
    align across modes.  Clock names map to merged names."""
    mapping = clock_map or {}
    graph = bound.graph
    states = {}
    for sp in graph.startpoint_nodes():
        for ep in graph.endpoint_nodes():
            for path in enumerate_paths(bound, sp, ep, limit=20000):
                for from_edge, end_edge in feasible_edge_pairs(bound, path):
                    key = (path.nodes,
                           mapping.get(path.launch_clock, path.launch_clock),
                           mapping.get(path.capture_clock,
                                       path.capture_clock),
                           from_edge, end_edge)
                    states[key] = path_state(bound, path, from_edge,
                                             end_edge)
    return states


class TestMergedModeIsExact:
    @given(circuit_params, st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_merge_of_two_modes_path_exact(self, params, seed_a, seed_b):
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode_a = build_random_mode(netlist, seed_a, "A")
        mode_b = build_random_mode(netlist, seed_b, "B")
        result = merge_modes(netlist, [mode_a, mode_b],
                             options=MergeOptions(strict=False))
        if not result.ok:
            # Non-mergeable combinations (e.g. unrecoverable MCP overlap)
            # are legitimate outcomes; the flow reports rather than lies.
            assert result.outcome.residuals or result.validation_mismatches
            return

        merged_bound = BoundMode(netlist, result.merged)
        merged_states = _path_states(merged_bound)
        individual_states = [
            _path_states(BoundMode(netlist, mode), result.clock_maps[mode.name])
            for mode in (mode_a, mode_b)
        ]

        all_keys = set(merged_states)
        for states in individual_states:
            all_keys |= set(states)

        for key in all_keys:
            per_mode = [s.get(key) for s in individual_states]
            timed = [s for s in per_mode
                     if s is not None and not s.is_false]
            merged_state = merged_states.get(key)
            merged_timed = merged_state is not None \
                and not merged_state.is_false
            if not timed:
                assert not merged_timed, (
                    f"merged times {key} which no individual mode times")
            else:
                assert merged_timed, (
                    f"merged fails to time {key} (states {timed})")
                expected = combine_strictest(timed)
                assert merged_state == expected, (
                    f"path {key}: merged {merged_state}, expected {expected} "
                    f"from {per_mode}")

    @given(circuit_params, st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_merge_is_order_insensitive(self, params, seed_a, seed_b):
        """merge([A, B]) and merge([B, A]) time exactly the same paths."""
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode_a = build_random_mode(netlist, seed_a, "A")
        mode_b = build_random_mode(netlist, seed_b, "B")
        ab = merge_modes(netlist, [mode_a, mode_b],
                         options=MergeOptions(strict=False))
        ba = merge_modes(netlist, [mode_b, mode_a],
                         options=MergeOptions(strict=False))
        if not (ab.ok and ba.ok):
            return  # non-mergeable either way round: nothing to compare
        # Clock names may differ (renaming depends on order); compare
        # path states through each result's own clock maps, normalizing
        # onto mode A's clock names.
        def normalize(result):
            # A merged clock is identified by the full (mode, original
            # name) set it unifies — invariant under merge order, unlike
            # the merged name itself (renaming depends on order).
            contributors = {}
            for mode_name, mapping in result.clock_maps.items():
                for own, merged in mapping.items():
                    contributors.setdefault(merged, set()).add(
                        f"{mode_name}:{own}")
            inverse = {merged: frozenset(names)
                       for merged, names in contributors.items()}
            states = _path_states(BoundMode(netlist, result.merged))
            return {(nodes, inverse.get(lc, lc), inverse.get(cc, cc),
                     fe, ee): state
                    for (nodes, lc, cc, fe, ee), state in states.items()}

        states_ab = normalize(ab)
        states_ba = normalize(ba)
        keys = set(states_ab) | set(states_ba)
        for key in keys:
            a = states_ab.get(key)
            b = states_ba.get(key)
            a_timed = a is not None and not a.is_false
            b_timed = b is not None and not b.is_false
            assert a_timed == b_timed, key
            if a_timed:
                assert a == b, key

    @given(circuit_params, st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_merge_single_mode_is_identity(self, params, seed_a):
        """Merging one mode changes nothing observable."""
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode = build_random_mode(netlist, seed_a, "A")
        result = merge_modes(netlist, [mode],
                             options=MergeOptions(strict=False))
        assert result.ok
        original = _path_states(BoundMode(netlist, mode),
                                result.clock_maps["A"])
        merged = _path_states(BoundMode(netlist, result.merged))
        # Identical timing for timed paths; false==absent equivalence.
        keys = set(original) | set(merged)
        for key in keys:
            a = original.get(key)
            b = merged.get(key)
            a_timed = a is not None and not a.is_false
            b_timed = b is not None and not b.is_false
            assert a_timed == b_timed
            if a_timed:
                assert a == b
