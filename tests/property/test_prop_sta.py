"""Property tests: STA arrival propagation vs a brute-force path oracle."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from circuits import build_random_circuit, build_random_mode, circuit_params

from repro.timing import BoundMode, UnitDelayModel, enumerate_paths
from repro.timing.sta import StaEngine

UNIT = UnitDelayModel()


def _path_arrival(engine, path):
    """Launch base + sum of arc delays along the concrete path."""
    graph = engine.graph
    total = engine._launch_base(path.launch_clock)
    total_min = engine._launch_base(path.launch_clock, early=True)
    delay_sum = 0.0
    for src, dst in zip(path.nodes, path.nodes[1:]):
        arc = next(a for a in graph.fanout[src] if a.dst == dst)
        delay_sum += engine.delay_model.arc_delay(graph, arc)
    if path.startpoint not in graph.seq_clock_nodes:
        # Port startpoint: the external delay is the seed, not an arc.
        delays = engine.bound.input_delays.get(path.startpoint, ())
        highs = [d.value for d in delays
                 if d.clock == path.launch_clock and d.applies_max]
        lows = [d.value for d in delays
                if d.clock == path.launch_clock and d.applies_min]
        if not highs:
            return None
        total += max(highs) + delay_sum
        total_min += (min(lows) if lows else max(highs)) + delay_sum
        return total_min, total
    return total_min + delay_sum, total + delay_sum


class TestArrivalOracle:
    @given(circuit_params, st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_max_min_arrivals_match_enumeration(self, params, mode_seed):
        """Per endpoint and launch clock, the engine's arrival window
        equals the min/max over every enumerated path."""
        seed, gates, regs, mux = params
        netlist = build_random_circuit(seed, gates, regs, mux)
        mode = build_random_mode(netlist, mode_seed, "m",
                                 with_exceptions=False)
        bound = BoundMode(netlist, mode)
        engine = StaEngine(bound, UNIT)
        arrivals = engine._propagate_arrivals()
        graph = bound.graph

        # Oracle windows per (endpoint, launch clock).
        oracle = {}
        for sp in graph.startpoint_nodes():
            for ep in graph.endpoint_nodes():
                for path in enumerate_paths(bound, sp, ep, limit=20000):
                    window = _path_arrival(engine, path)
                    if window is None:
                        continue
                    key = (ep, path.launch_clock)
                    lo, hi = window
                    old = oracle.get(key)
                    if old is None:
                        oracle[key] = (lo, hi)
                    else:
                        oracle[key] = (min(old[0], lo), max(old[1], hi))

        engine_windows = {}
        for ep in graph.endpoint_nodes():
            for (lc, _ledge, _active, _edge), (lo, hi) \
                    in arrivals.get(ep, {}).items():
                old = engine_windows.get((ep, lc))
                if old is None:
                    engine_windows[(ep, lc)] = (lo, hi)
                else:
                    engine_windows[(ep, lc)] = (min(old[0], lo),
                                                max(old[1], hi))

        # Paths are enumerated per capture-clocked endpoint only; the
        # engine also has arrivals at endpoints without capture clocks,
        # so compare on the oracle's key set.
        for key, (lo, hi) in oracle.items():
            assert key in engine_windows, graph.name(key[0])
            engine_lo, engine_hi = engine_windows[key]
            assert engine_hi == pytest.approx(hi), graph.name(key[0])
            assert engine_lo == pytest.approx(lo), graph.name(key[0])
