"""Delay models.

The paper's evaluation ran STA "using wire load model approach"; we provide
the same style of estimate: a cell arc costs the cell's intrinsic delay plus
a fanout-proportional wire term, net arcs are free (their cost is lumped
into the driving cell), and launch arcs add the sequential clock-to-Q.

The model is deliberately simple — Table 6 compares *relative* STA effort
between individual and merged modes, which any consistent model preserves —
but it is a real interface: alternative models can be passed anywhere a
:class:`DelayModel` is accepted (``UnitDelayModel`` is used in tests where
hand-computable numbers matter).
"""

from __future__ import annotations

from typing import Optional

from repro.timing.graph import ARC_NET, Arc, TimingGraph


class DelayModel:
    """Interface: map a timing arc to a delay in library time units."""

    def arc_delay(self, graph: TimingGraph, arc: Arc) -> float:
        raise NotImplementedError


class UnitDelayModel(DelayModel):
    """Every cell/launch arc costs 1.0, net arcs cost 0 — for exact tests."""

    def arc_delay(self, graph: TimingGraph, arc: Arc) -> float:
        if arc.kind == ARC_NET:
            return 0.0
        return 1.0


class WireLoadDelayModel(DelayModel):
    """Intrinsic + fanout-slope estimate, the classic wire-load style.

    ``delay(arc) = base_delay(cell) + slope * fanout(driven net)``
    """

    def __init__(self, slope: float = 0.05, net_delay: float = 0.0):
        self.slope = slope
        self.net_delay = net_delay
        # Memoized per-arc delays (graph arcs are stable).
        self._cache: dict = {}

    def arc_delay(self, graph: TimingGraph, arc: Arc) -> float:
        cached = self._cache.get((id(graph), arc.index))
        if cached is not None:
            return cached
        if arc.kind == ARC_NET:
            value = self.net_delay
        else:
            base = arc.instance.cell.base_delay if arc.instance else 1.0
            out_obj = graph.node_obj[arc.dst]
            fanout = 0
            net = getattr(out_obj, "net", None)
            if net is not None:
                fanout = net.fanout
            value = base + self.slope * fanout
        self._cache[(id(graph), arc.index)] = value
        return value


#: Default model used by STA when none is supplied.
DEFAULT_DELAY_MODEL = WireLoadDelayModel()


def resolve_model(model: Optional[DelayModel]) -> DelayModel:
    return model if model is not None else DEFAULT_DELAY_MODEL
