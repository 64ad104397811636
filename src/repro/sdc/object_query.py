"""Resolution of :class:`~repro.sdc.commands.ObjectRef` against a design.

This is the ``get_ports`` / ``get_pins`` / ``get_clocks`` machinery: given a
netlist and the clock namespace of a mode, resolve a pattern list into
concrete design objects.  Patterns support ``fnmatch``-style wildcards
(``*``, ``?``, ``[seq]``) as SDC does.

``AUTO`` references (bare names in SDC text) are resolved the way sign-off
tools do: names containing ``/`` are pins, otherwise ports win over cells.
Role queries (``all_inputs`` etc.) are encoded as marker patterns by the
parser and expanded here.
"""

from __future__ import annotations

import fnmatch
import re
from typing import Iterable, List, Optional, Sequence, Set

from repro.errors import SdcLookupError
from repro.netlist.netlist import Netlist
from repro.sdc.commands import ObjectRef, RefKind
from repro.sdc.parser import ALL_CLOCKS, ALL_INPUTS, ALL_OUTPUTS, ALL_REGISTERS

_WILDCARD_RE = re.compile(r"[*?\[]")


def _has_wildcard(pattern: str) -> bool:
    return bool(_WILDCARD_RE.search(pattern))


class ObjectResolver:
    """Caches name tables for one netlist and resolves ObjectRefs.

    ``clock_names`` is the clock namespace of the mode being bound; it can
    be swapped per mode with :meth:`with_clocks` without rebuilding the
    netlist tables.
    """

    def __init__(self, netlist: Netlist,
                 clock_names: Optional[Iterable[str]] = None):
        self.netlist = netlist
        self.clock_names: List[str] = sorted(set(clock_names or ()))
        self._port_names = sorted(p.name for p in netlist.ports)
        self._cell_names = sorted(i.name for i in netlist.instances)
        self._net_names = sorted(n.name for n in netlist.nets)
        self._pin_names = sorted(netlist.iter_pin_names())

    def with_clocks(self, clock_names: Iterable[str]) -> "ObjectResolver":
        clone = object.__new__(ObjectResolver)
        clone.netlist = self.netlist
        clone.clock_names = sorted(set(clock_names))
        clone._port_names = self._port_names
        clone._cell_names = self._cell_names
        clone._net_names = self._net_names
        clone._pin_names = self._pin_names
        return clone

    # ------------------------------------------------------------------
    # name-level resolution
    # ------------------------------------------------------------------
    def _match(self, pattern: str, names: Sequence[str]) -> List[str]:
        if not _has_wildcard(pattern):
            # Exact-name fast path.
            return [pattern] if _binary_contains(names, pattern) else []
        return fnmatch.filter(names, pattern)

    def port_names(self, patterns: Iterable[str]) -> List[str]:
        return self._expand(patterns, self._port_names)

    def pin_names(self, patterns: Iterable[str]) -> List[str]:
        return self._expand(patterns, self._pin_names)

    def cell_names(self, patterns: Iterable[str]) -> List[str]:
        return self._expand(patterns, self._cell_names)

    def net_names(self, patterns: Iterable[str]) -> List[str]:
        return self._expand(patterns, self._net_names)

    def clock_matches(self, patterns: Iterable[str]) -> List[str]:
        return self._expand(patterns, self.clock_names)

    def _expand(self, patterns: Iterable[str], names: Sequence[str]) -> List[str]:
        out: List[str] = []
        seen: Set[str] = set()
        for pattern in patterns:
            for name in self._match(pattern, names):
                if name not in seen:
                    seen.add(name)
                    out.append(name)
        return out

    # ------------------------------------------------------------------
    # object-level resolution
    # ------------------------------------------------------------------
    def resolve(self, ref: ObjectRef, required: bool = False) -> "Resolution":
        """Resolve ``ref``; returns a :class:`Resolution` of object names.

        With ``required=True`` an empty result raises
        :class:`~repro.errors.SdcLookupError` (matching tool behaviour for
        queries used in mandatory positions).
        """
        res = Resolution()
        patterns = list(ref.patterns)
        # Expand role markers first (they may appear inside AUTO refs).
        rest: List[str] = []
        for pattern in patterns:
            if pattern == ALL_INPUTS:
                res.ports.extend(p.name for p in self.netlist.input_ports())
            elif pattern == ALL_OUTPUTS:
                res.ports.extend(p.name for p in self.netlist.output_ports())
            elif pattern == ALL_CLOCKS:
                res.clocks.extend(self.clock_names)
            elif pattern == ALL_REGISTERS:
                res.cells.extend(
                    i.name for i in self.netlist.sequential_instances())
            else:
                rest.append(pattern)

        if ref.kind is RefKind.PORT:
            res.ports.extend(self.port_names(rest))
        elif ref.kind is RefKind.PIN:
            res.pins.extend(self.pin_names(rest))
        elif ref.kind is RefKind.CELL:
            res.cells.extend(self.cell_names(rest))
        elif ref.kind is RefKind.NET:
            res.nets.extend(self.net_names(rest))
        elif ref.kind is RefKind.CLOCK:
            res.clocks.extend(self.clock_matches(rest))
        else:  # AUTO: probe namespaces
            for pattern in rest:
                if "/" in pattern:
                    matched = self.pin_names([pattern])
                    if matched:
                        res.pins.extend(matched)
                        continue
                matched = self.port_names([pattern])
                if matched:
                    res.ports.extend(matched)
                    continue
                matched = self.cell_names([pattern])
                if matched:
                    res.cells.extend(matched)
                    continue
                matched = self.clock_matches([pattern])
                if matched:
                    res.clocks.extend(matched)

        res.dedupe()
        if required and res.is_empty:
            raise SdcLookupError(f"query {ref} matched no objects")
        return res

    # ------------------------------------------------------------------
    # pin-set helpers used by the timing layer
    # ------------------------------------------------------------------
    def resolve_to_pin_like(self, ref: ObjectRef) -> List[str]:
        """Resolve to "pin-like" names for path selections.

        Cells expand to all their pins; ports stay as port names (the
        timing graph has nodes for ports).  Clocks are excluded — callers
        that accept clocks in -from/-to handle them separately.
        """
        res = self.resolve(ref)
        names: List[str] = list(res.pins)
        names.extend(res.ports)
        for cell_name in res.cells:
            inst = self.netlist.instance(cell_name)
            names.extend(pin.full_name for pin in inst.pins.values())
        return names


class Resolution:
    """Matched object names grouped by namespace."""

    def __init__(self):
        self.ports: List[str] = []
        self.pins: List[str] = []
        self.cells: List[str] = []
        self.nets: List[str] = []
        self.clocks: List[str] = []

    def dedupe(self) -> None:
        self.ports = _stable_unique(self.ports)
        self.pins = _stable_unique(self.pins)
        self.cells = _stable_unique(self.cells)
        self.nets = _stable_unique(self.nets)
        self.clocks = _stable_unique(self.clocks)

    @property
    def is_empty(self) -> bool:
        return not (self.ports or self.pins or self.cells or self.nets
                    or self.clocks)

    def __repr__(self) -> str:
        parts = []
        for label, names in (("ports", self.ports), ("pins", self.pins),
                             ("cells", self.cells), ("nets", self.nets),
                             ("clocks", self.clocks)):
            if names:
                parts.append(f"{label}={names}")
        return f"Resolution({', '.join(parts)})"


def _stable_unique(names: List[str]) -> List[str]:
    seen: Set[str] = set()
    out: List[str] = []
    for name in names:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def resolver_for(netlist: Netlist) -> "ObjectResolver":
    """A cached clockless resolver for ``netlist``.

    Building a resolver sorts every object name in the design; callers
    that only need design-object resolution (no clock namespace) should
    share one instance per netlist.  It is cached on the netlist itself
    (cf. build_graph) and invalidates when the design's object counts
    change (netlists are append-only).
    """
    cached = netlist.derived.get("resolver")
    expected = (len(netlist.ports), len(netlist.instances),
                len(netlist.nets))
    if cached is None \
            or (len(cached._port_names), len(cached._cell_names),
                len(cached._net_names)) != expected:
        cached = ObjectResolver(netlist)
        netlist.derived["resolver"] = cached
    return cached


def _binary_contains(sorted_names: Sequence[str], name: str) -> bool:
    import bisect

    idx = bisect.bisect_left(sorted_names, name)
    return idx < len(sorted_names) and sorted_names[idx] == name
