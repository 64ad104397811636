"""Static timing analysis engine.

Computes per-endpoint worst setup slacks for one bound mode, honouring the
full constraint semantics the rest of the library models: case-analysis
constants, disabled arcs, propagated clock sets, exclusive clock groups,
external delays, and path exceptions (false paths, multicycle paths,
min/max delay overrides) applied with SDC precedence.

Arrivals are propagated per *tag* — (launch clock, active exceptions) —
exactly like :mod:`repro.timing.relationships`, so a path that is false
only through one branch of a reconvergence is correctly excluded only
there.  Inter-clock setup relations are computed by edge expansion over a
bounded hyperperiod, the textbook approach.

This engine is the measurement instrument for the paper's Table 6: STA
runtime with individual modes vs merged modes, and endpoint-slack
conformity between the two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.context import current
from repro.timing.context import BoundMode, Clock
from repro.timing.delay import DelayModel, resolve_model
from repro.timing.graph import ARC_LAUNCH, SENSE_POS
from repro.timing.relationships import _EDGES_OF, RelationshipExtractor
from repro.timing.states import RelState, resolve_state

#: Default setup requirement of sequential data pins (library units).
DEFAULT_SETUP_TIME = 0.15

#: Default hold requirement of sequential data pins (library units).
DEFAULT_HOLD_TIME = 0.05

# Max launch edges examined when expanding inter-clock relations.
_MAX_EDGE_EXPANSION = 64


def _edge_offset(clock: Clock, edge: str) -> float:
    return clock.rise_edge if edge != "f" else clock.fall_edge


def setup_relation(launch: Clock, capture: Clock,
                   launch_edge: str = "r", capture_edge: str = "r") -> float:
    """Smallest positive capture-edge minus launch-edge separation.

    This is the single-cycle setup relation: the tightest pairing of a
    launch edge with the next capture edge, searched over a bounded
    hyperperiod (full LCM expansion for commensurate clocks; a safe
    fallback of ``min(periods)`` for pathological ratios).  The active
    edges select which waveform edge launches/captures (falling-edge
    registers use the fall edge).
    """
    period_l = launch.period
    period_c = capture.period
    launch_offset = _edge_offset(launch, launch_edge)
    capture_offset = _edge_offset(capture, capture_edge)
    best: Optional[float] = None
    t_launch = launch_offset
    horizon = launch_offset + _MAX_EDGE_EXPANSION * period_l
    hyper = _hyperperiod(period_l, period_c)
    if hyper is not None:
        horizon = min(horizon, launch_offset + hyper)
    while t_launch < horizon + 1e-9:
        k = math.floor((t_launch - capture_offset) / period_c) + 1
        t_capture = capture_offset + k * period_c
        diff = t_capture - t_launch
        if diff <= 1e-9:
            t_capture += period_c
            diff = t_capture - t_launch
        if best is None or diff < best - 1e-12:
            best = diff
        t_launch += period_l
    return best if best is not None else min(period_l, period_c)


def _hyperperiod(a: float, b: float) -> Optional[float]:
    """LCM of two periods if they are commensurate within tolerance."""
    from fractions import Fraction

    try:
        fa = Fraction(a).limit_denominator(10000)
        fb = Fraction(b).limit_denominator(10000)
    except (ValueError, ZeroDivisionError):
        return None
    if not fa or not fb:
        return None
    # lcm(a/b, c/d) = a*c / gcd(a*d, c*b)
    lcm = Fraction(fa.numerator * fb.numerator,
                   math.gcd(fa.numerator * fb.denominator,
                            fb.numerator * fa.denominator))
    value = float(lcm)
    if value > 1e4 * max(a, b):
        return None
    return value


@dataclass
class EndpointSlack:
    """Worst setup slack at one endpoint."""

    endpoint: str
    slack: float
    launch_clock: str
    capture_clock: str
    capture_period: float
    arrival: float
    required: float
    state: RelState


@dataclass
class StaResult:
    """Full STA result for one mode."""

    mode_name: str
    endpoint_slacks: Dict[str, EndpointSlack] = field(default_factory=dict)
    #: populated only when the engine ran with ``analyze_hold=True``
    hold_slacks: Dict[str, EndpointSlack] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    timed_relationship_count: int = 0

    @property
    def worst_slack(self) -> float:
        if not self.endpoint_slacks:
            return float("inf")
        return min(e.slack for e in self.endpoint_slacks.values())

    @property
    def worst_hold_slack(self) -> float:
        if not self.hold_slacks:
            return float("inf")
        return min(e.slack for e in self.hold_slacks.values())

    @property
    def tns(self) -> float:
        """Total negative slack."""
        return sum(min(e.slack, 0.0) for e in self.endpoint_slacks.values())


# (launch clock, launch active edge, active exceptions, data edge).
Tag = Tuple[str, str, Tuple[Tuple[int, int], ...], str]
#: node -> tag -> (min, max) arrival window
Arrivals = Dict[int, Dict[Tag, Tuple[float, float]]]


def _widen(arrivals: Arrivals, node: int, tag: Tag, lo: float,
           hi: float) -> None:
    """Merge the window (lo, hi) into ``tag``'s window at ``node``."""
    bucket = arrivals.setdefault(node, {})
    old = bucket.get(tag)
    if old is None:
        bucket[tag] = (lo, hi)
    else:
        bucket[tag] = (min(old[0], lo), max(old[1], hi))


class StaEngine:
    """Setup STA over one bound mode."""

    def __init__(self, bound: BoundMode,
                 delay_model: Optional[DelayModel] = None,
                 setup_time: float = DEFAULT_SETUP_TIME,
                 hold_time: float = DEFAULT_HOLD_TIME,
                 analyze_hold: bool = False):
        self.bound = bound
        self.graph = bound.graph
        self.delay_model = resolve_model(delay_model)
        self.setup_time = setup_time
        self.hold_time = hold_time
        self.analyze_hold = analyze_hold
        self.clock_prop = bound.clock_propagation()
        self._extractor = RelationshipExtractor(bound, self.clock_prop)
        self._relation_cache: Dict[Tuple[str, str], float] = {}
        self._hold_relation_cache: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def run(self) -> StaResult:
        obs = current()
        with obs.tracer.span("sta:run", mode=self.bound.mode.name) as span:
            start = time.perf_counter()
            arrivals = self._propagate_arrivals()
            result = StaResult(self.bound.mode.name)
            self._compute_slacks(arrivals, result)
            result.runtime_seconds = time.perf_counter() - start
            metrics = obs.metrics
            if metrics.enabled:
                metrics.inc("sta.runs")
                metrics.inc("sta.endpoints", len(result.endpoint_slacks))
                metrics.inc("sta.timed_relationships",
                            result.timed_relationship_count)
                metrics.observe("sta.run_seconds", result.runtime_seconds)
            span.annotate(endpoints=len(result.endpoint_slacks),
                          timed_relationships=result.timed_relationship_count)
        return result

    # ------------------------------------------------------------------
    # arrival propagation
    # ------------------------------------------------------------------
    def _launch_base(self, clock_name: str, early: bool = False,
                     launch_edge: str = "r") -> float:
        clock = self.bound.clocks[clock_name]
        latency = self.bound.clock_latency.get(clock_name, (0.0, 0.0))
        return _edge_offset(clock, launch_edge) \
            + (latency[0] if early else latency[1])

    def _propagate_arrivals(self) -> Arrivals:
        """Per-node, per-tag (min, max) arrival windows."""
        arrivals = self._seed_arrivals()
        self._relax(arrivals)
        return arrivals

    def _seed_arrivals(self) -> Arrivals:
        """The windows at the launch points: register outputs and input
        ports with external delays."""
        graph = self.graph
        bound = self.bound
        constants = bound.constants
        model = self.delay_model
        extractor = self._extractor
        arrivals: Arrivals = {}
        edges = extractor._edge_values()

        # Seeds: register launches.
        for inst_name, (cp_node, _d, _o) in graph.seq_info.items():
            clocks = self.clock_prop.register_clocks.get(inst_name)
            if not clocks:
                continue
            for arc in graph.fanout[cp_node]:
                if arc.kind != ARC_LAUNCH or not constants.arc_is_live(arc):
                    continue
                ck2q = model.arc_delay(graph, arc)
                inst = graph.instance_of(cp_node)
                ledge = inst.cell.active_edge if inst else "r"
                for lc in clocks:
                    active = tuple(sorted(
                        extractor._initial_active(cp_node, lc, ledge)))
                    active = extractor._advance(active, cp_node)
                    active = extractor._advance(active, arc.dst)
                    for edge in edges:
                        _widen(arrivals, arc.dst, (lc, ledge, active, edge),
                               self._launch_base(lc, early=True,
                                                 launch_edge=ledge) + ck2q,
                               self._launch_base(lc, launch_edge=ledge)
                               + ck2q)
        # Seeds: input ports with external delays.
        for port_node, delays in bound.input_delays.items():
            if constants.is_constant(port_node):
                continue
            by_clock = {}
            for delay in delays:
                if not delay.clock or delay.clock not in bound.clocks:
                    continue
                ledge = "f" if delay.clock_fall else "r"
                lo, hi = by_clock.get((delay.clock, ledge), (None, None))
                if delay.applies_min and (lo is None or delay.value < lo):
                    lo = delay.value
                if delay.applies_max and (hi is None or delay.value > hi):
                    hi = delay.value
                by_clock[(delay.clock, ledge)] = (lo, hi)
            for (lc, ledge), (lo, hi) in by_clock.items():
                if hi is None and lo is None:
                    continue
                hi = hi if hi is not None else lo
                lo = lo if lo is not None else hi
                for edge in edges:
                    active = tuple(sorted(
                        extractor._initial_active(port_node, lc, edge)))
                    active = extractor._advance(active, port_node)
                    _widen(arrivals, port_node, (lc, ledge, active, edge),
                           self._launch_base(lc, early=True,
                                             launch_edge=ledge) + lo,
                           self._launch_base(lc, launch_edge=ledge) + hi)
        return arrivals

    def _relax(self, arrivals: Arrivals) -> None:
        """Push the windows forward in topological order.

        As in relationship extraction, a node whose active exceptions are
        all inert sends every tag across an edge-keeping arc unchanged:
        only the arrival windows move.
        """
        graph = self.graph
        constants = self.bound.constants
        model = self.delay_model
        extractor = self._extractor
        same_edges = extractor._edge_values() == ("*",)
        inert = extractor._inert
        widen = _widen
        for node in graph.topo_order:
            bucket = arrivals.get(node)
            if not bucket:
                continue
            tags_inert = all(not tag[2] or inert(tag[2]) for tag in bucket)
            for arc in graph.data_fanout[node]:
                if not constants.arc_is_live(arc):
                    continue
                delay = model.arc_delay(graph, arc)
                dst = arc.dst
                if tags_inert and (same_edges or arc.sense == SENSE_POS):
                    for tag, (lo, hi) in bucket.items():
                        widen(arrivals, dst, tag, lo + delay, hi + delay)
                    continue
                edges_of = _EDGES_OF[arc.sense]
                for (lc, ledge, active, edge), (lo, hi) in bucket.items():
                    new_active = extractor._advance(active, dst)
                    for new_edge in edges_of[edge]:
                        widen(arrivals, dst, (lc, ledge, new_active, new_edge),
                              lo + delay, hi + delay)

    # ------------------------------------------------------------------
    # required times and slacks
    # ------------------------------------------------------------------
    def _compute_slacks(self, arrivals: Dict[int, Dict[Tag, float]],
                        result: StaResult) -> None:
        graph = self.graph
        bound = self.bound
        for ep in graph.endpoint_nodes():
            bucket = arrivals.get(ep)
            if not bucket:
                continue
            capture_rows = self._capture_rows(ep)
            if not capture_rows:
                continue
            best: Optional[EndpointSlack] = None
            best_hold: Optional[EndpointSlack] = None
            for (lc, ledge, active, edge), (arrival_min, arrival_max) \
                    in bucket.items():
                for cc, margin, cedge in capture_rows:
                    if not bound.clock_pair_allowed(lc, cc):
                        continue
                    state = self._resolve_tag_state(active, ep, cc, edge,
                                                    cedge)
                    if state.is_false:
                        continue
                    result.timed_relationship_count += 1
                    required = self._required_time(lc, cc, state, margin,
                                                   ledge, cedge)
                    if state.max_delay is not None:
                        required = self._launch_base(
                            lc, launch_edge=ledge) + state.max_delay
                    slack = required - arrival_max
                    if best is None or slack < best.slack:
                        capture_clock = bound.clocks[cc]
                        best = EndpointSlack(
                            endpoint=graph.name(ep),
                            slack=slack,
                            launch_clock=lc,
                            capture_clock=cc,
                            capture_period=capture_clock.period,
                            arrival=arrival_max,
                            required=required,
                            state=state,
                        )
                    if not self.analyze_hold:
                        continue
                    hold_required = self._hold_required_time(lc, cc, state,
                                                             ledge, cedge)
                    if state.min_delay is not None:
                        hold_required = self._launch_base(
                            lc, early=True, launch_edge=ledge) \
                            + state.min_delay
                    hold_slack = arrival_min - hold_required
                    if best_hold is None or hold_slack < best_hold.slack:
                        capture_clock = bound.clocks[cc]
                        best_hold = EndpointSlack(
                            endpoint=graph.name(ep),
                            slack=hold_slack,
                            launch_clock=lc,
                            capture_clock=cc,
                            capture_period=capture_clock.period,
                            arrival=arrival_min,
                            required=hold_required,
                            state=state,
                        )
            if best is not None:
                result.endpoint_slacks[best.endpoint] = best
            if best_hold is not None:
                result.hold_slacks[best_hold.endpoint] = best_hold

    def _capture_rows(self, ep: int) -> List[Tuple[str, float, str]]:
        """(capture clock, endpoint margin, capture edge) rows.

        For a register data pin the margin is the setup time; for an
        output port it is the external ``set_output_delay`` value (with
        ``-clock_fall`` selecting the falling reference edge).
        """
        rows: List[Tuple[str, float, str]] = []
        obj = self.graph.node_obj[ep]
        if ep in self.graph.seq_data_nodes:
            clocks = self.clock_prop.register_clocks.get(obj.instance.name)
            if clocks:
                cedge = obj.instance.cell.active_edge
                rows.extend((cc, self.setup_time, cedge)
                            for cc in sorted(clocks))
            return rows
        for delay in self.bound.output_delays.get(ep, ()):
            if delay.clock and delay.clock in self.bound.clocks \
                    and delay.applies_max:
                rows.append((delay.clock, delay.value,
                             "f" if delay.clock_fall else "r"))
        return rows

    def _resolve_tag_state(self, active, ep: int, cc: str,
                           edge: str = "*",
                           capture_edge: str = "r") -> RelState:
        completed = []
        for idx, progress in active:
            if idx < 0:
                continue
            exc = self.bound.exceptions[idx]
            if exc.completes(progress, ep, cc, edge, capture_edge):
                completed.append(exc.constraint)
        return resolve_state(completed)

    def _required_time(self, lc: str, cc: str, state: RelState,
                       margin: float, launch_edge: str = "r",
                       capture_edge: str = "r") -> float:
        key = (lc, cc, launch_edge, capture_edge)
        relation = self._relation_cache.get(key)
        bound = self.bound
        if relation is None:
            relation = setup_relation(bound.clocks[lc], bound.clocks[cc],
                                      launch_edge, capture_edge)
            self._relation_cache[key] = relation
        capture_clock = bound.clocks[cc]
        if state.mcp_setup is not None and state.mcp_setup > 1:
            relation = relation + (state.mcp_setup - 1) * capture_clock.period
        latency = bound.clock_latency.get(cc, (0.0, 0.0))[0]
        uncertainty = bound.uncertainty_for(lc, cc)
        # Arrivals are absolute (they include the launch-edge offset), so
        # the required time is anchored at the same launch edge.
        origin = _edge_offset(bound.clocks[lc], launch_edge)
        return origin + relation + latency - uncertainty - margin

    def _hold_required_time(self, lc: str, cc: str, state: RelState,
                            launch_edge: str = "r",
                            capture_edge: str = "r") -> float:
        key = (lc, cc, launch_edge, capture_edge)
        relation = self._hold_relation_cache.get(key)
        bound = self.bound
        if relation is None:
            relation = hold_relation(bound.clocks[lc], bound.clocks[cc],
                                     launch_edge, capture_edge)
            self._hold_relation_cache[key] = relation
        capture_clock = bound.clocks[cc]
        if state.mcp_hold is not None and state.mcp_hold > 0:
            # set_multicycle_path -hold N moves the hold check back N
            # capture cycles (the standard pairing with a setup MCP).
            relation -= state.mcp_hold * capture_clock.period
        latency = bound.clock_latency.get(cc, (0.0, 0.0))[1]
        origin = _edge_offset(bound.clocks[lc], launch_edge)
        return origin + relation + latency + self.hold_time


def hold_relation(launch: Clock, capture: Clock,
                  launch_edge: str = "r", capture_edge: str = "r") -> float:
    """The hold check separation: for every launch edge, data must not
    race past the *previous* capture edge.  Returns the largest
    (capture edge - launch edge) over pairs with the capture edge at or
    before the launch edge — zero for identical clocks."""
    period_l = launch.period
    period_c = capture.period
    launch_offset = _edge_offset(launch, launch_edge)
    capture_offset = _edge_offset(capture, capture_edge)
    best: Optional[float] = None
    t_launch = launch_offset
    horizon = launch_offset + _MAX_EDGE_EXPANSION * period_l
    hyper = _hyperperiod(period_l, period_c)
    if hyper is not None:
        horizon = min(horizon, launch_offset + hyper)
    while t_launch < horizon + 1e-9:
        k = math.floor((t_launch - capture_offset) / period_c)
        t_capture = capture_offset + k * period_c
        diff = t_capture - t_launch
        if diff <= 1e-9 and (best is None or diff > best + 1e-12):
            best = diff
        t_launch += period_l
    return best if best is not None else 0.0


def run_sta(bound: BoundMode, delay_model: Optional[DelayModel] = None,
            setup_time: float = DEFAULT_SETUP_TIME,
            hold_time: float = DEFAULT_HOLD_TIME,
            analyze_hold: bool = False) -> StaResult:
    """Convenience wrapper: run STA over one bound mode.

    Setup analysis always runs; pass ``analyze_hold=True`` to also fill
    ``StaResult.hold_slacks`` from the min-arrival side of the same
    propagation."""
    return StaEngine(bound, delay_model, setup_time, hold_time,
                     analyze_hold).run()
