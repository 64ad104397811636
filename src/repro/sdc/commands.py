"""Object model for SDC constraints.

Every supported SDC command is a frozen dataclass.  Constraints are stored
*unresolved*: object arguments are :class:`ObjectRef` patterns, not design
objects, so a mode can be parsed, compared, rewritten and re-emitted without
a netlist.  Binding to a design happens in :mod:`repro.timing`.

Two methods matter for mode merging:

* ``key()`` — the constraint's *identity* ignoring numeric values.  Two
  constraints with equal keys from different modes "correspond" and their
  values can be merged under a tolerance (Section 3.1.2 / 3.1.6).
* dataclass equality — full structural equality, used for the union /
  intersection steps (Sections 3.1.3-3.1.5, 3.1.9).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Tuple


class RefKind(Enum):
    """What namespace an :class:`ObjectRef` selects from."""

    PORT = "port"
    PIN = "pin"
    CELL = "cell"
    NET = "net"
    CLOCK = "clock"
    # A bare name in SDC that must be resolved by probing namespaces
    # (ports first, then pins, then cells) the way real tools do.
    AUTO = "auto"


@dataclass(frozen=True, order=True)
class ObjectRef:
    """An unresolved object selection, e.g. ``[get_pins {rA/CP rB/CP}]``."""

    kind: RefKind
    patterns: Tuple[str, ...]

    @staticmethod
    def ports(*patterns: str) -> "ObjectRef":
        return ObjectRef(RefKind.PORT, tuple(patterns))

    @staticmethod
    def pins(*patterns: str) -> "ObjectRef":
        return ObjectRef(RefKind.PIN, tuple(patterns))

    @staticmethod
    def cells(*patterns: str) -> "ObjectRef":
        return ObjectRef(RefKind.CELL, tuple(patterns))

    @staticmethod
    def nets(*patterns: str) -> "ObjectRef":
        return ObjectRef(RefKind.NET, tuple(patterns))

    @staticmethod
    def clocks(*patterns: str) -> "ObjectRef":
        return ObjectRef(RefKind.CLOCK, tuple(patterns))

    @staticmethod
    def auto(*patterns: str) -> "ObjectRef":
        return ObjectRef(RefKind.AUTO, tuple(patterns))

    @property
    def is_clock_ref(self) -> bool:
        return self.kind is RefKind.CLOCK

    def normalized(self) -> "ObjectRef":
        """Same selection with sorted, de-duplicated patterns."""
        return ObjectRef(self.kind, tuple(sorted(set(self.patterns))))

    def rename_clocks(self, mapping) -> "ObjectRef":
        """Rewrite clock names through ``mapping`` (for merged-mode refs)."""
        if self.kind is not RefKind.CLOCK:
            return self
        return ObjectRef(
            RefKind.CLOCK,
            tuple(mapping.get(p, p) for p in self.patterns),
        )

    def __str__(self) -> str:
        inner = " ".join(self.patterns)
        if self.kind is RefKind.AUTO:
            return inner
        return f"[get_{self.kind.value}s {{{inner}}}]"


class Constraint:
    """Base class (mixin) for all SDC constraint dataclasses."""

    #: SDC command name; overridden per class.
    command: str = ""

    def key(self):  # pragma: no cover - overridden where meaningful
        """Identity tuple ignoring numeric values (see module docstring)."""
        return (self.command,)

    def rename_clocks(self, mapping) -> "Constraint":
        """Return a copy with clock-name references rewritten."""
        return self

    def problems(self) -> List[str]:
        """Semantic validity problems (empty when the constraint is sound).

        The parser's recovery policies skip-and-record constraints that
        report problems here; strict parsing keeps the historical
        accept-silently behaviour for backwards compatibility.
        """
        return []


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CreateClock(Constraint):
    """``create_clock`` — primary clock definition."""

    name: str
    period: float
    # Rise/fall edge offsets. Default is (0, period/2).
    waveform: Tuple[float, ...] = ()
    # Source ports/pins; empty => virtual clock.
    sources: Optional[ObjectRef] = None
    add: bool = False
    comment: str = ""

    command = "create_clock"

    def effective_waveform(self) -> Tuple[float, float]:
        if self.waveform:
            return tuple(self.waveform)  # type: ignore[return-value]
        return (0.0, self.period / 2.0)

    @property
    def is_virtual(self) -> bool:
        return self.sources is None or not self.sources.patterns

    def signature(self) -> Tuple:
        """(sources, period, waveform) — used for duplicate detection in the
        clock-union step; the clock *name* is deliberately excluded."""
        src = self.sources.normalized() if self.sources else None
        return (src, round(self.period, 9), tuple(round(w, 9) for w in self.effective_waveform()))

    def key(self):
        return (self.command, self.name)

    def renamed(self, new_name: str) -> "CreateClock":
        return replace(self, name=new_name)

    def problems(self) -> List[str]:
        issues = []
        if self.period <= 0:
            issues.append(f"period must be positive, got {self.period}")
        if self.waveform and len(self.waveform) != 2:
            issues.append(f"waveform needs exactly two edges, "
                          f"got {len(self.waveform)}")
        return issues


@dataclass(frozen=True)
class CreateGeneratedClock(Constraint):
    """``create_generated_clock`` — derived clock definition."""

    name: str
    source: ObjectRef                      # master source pin/port
    sources: Optional[ObjectRef] = None    # pins the generated clock lives on
    master_clock: str = ""
    divide_by: int = 1
    multiply_by: int = 1
    invert: bool = False
    add: bool = False
    comment: str = ""

    command = "create_generated_clock"

    def signature(self) -> Tuple:
        src = self.sources.normalized() if self.sources else None
        return (
            src,
            self.source.normalized(),
            self.master_clock,
            self.divide_by,
            self.multiply_by,
            self.invert,
        )

    def key(self):
        return (self.command, self.name)

    def renamed(self, new_name: str) -> "CreateGeneratedClock":
        return replace(self, name=new_name)

    def rename_clocks(self, mapping) -> "CreateGeneratedClock":
        new_master = mapping.get(self.master_clock, self.master_clock)
        return replace(self, master_clock=new_master)

    def problems(self) -> List[str]:
        issues = []
        if self.divide_by < 1:
            issues.append(f"-divide_by must be >= 1, got {self.divide_by}")
        if self.multiply_by < 1:
            issues.append(f"-multiply_by must be >= 1, got {self.multiply_by}")
        return issues


class ClockGroupKind(Enum):
    PHYSICALLY_EXCLUSIVE = "physically_exclusive"
    LOGICALLY_EXCLUSIVE = "logically_exclusive"
    ASYNCHRONOUS = "asynchronous"


@dataclass(frozen=True)
class SetClockGroups(Constraint):
    """``set_clock_groups`` — mutual exclusivity / asynchrony between clocks."""

    groups: Tuple[Tuple[str, ...], ...]
    kind: ClockGroupKind = ClockGroupKind.PHYSICALLY_EXCLUSIVE
    name: str = ""

    command = "set_clock_groups"

    def key(self):
        return (self.command,
                tuple(tuple(sorted(g)) for g in self.groups), self.kind)

    def rename_clocks(self, mapping) -> "SetClockGroups":
        return replace(
            self,
            groups=tuple(tuple(mapping.get(c, c) for c in g) for g in self.groups),
        )

    def problems(self) -> List[str]:
        if any(not group for group in self.groups):
            return ["every -group needs at least one clock"]
        return []


# ---------------------------------------------------------------------------
# clock-attached constraints (tolerance-merged, Section 3.1.2)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SetClockLatency(Constraint):
    """``set_clock_latency`` — insertion delay of a clock."""

    value: float
    objects: ObjectRef                      # clocks (or ports/pins)
    source: bool = False
    min_flag: bool = False
    max_flag: bool = False
    early: bool = False
    late: bool = False

    command = "set_clock_latency"

    def key(self):
        return (self.command, self.objects.normalized(), self.source,
                self.min_flag, self.max_flag, self.early, self.late)

    @property
    def is_min(self) -> bool:
        """True when the constraint bounds the *min* (early) latency."""
        return self.min_flag or self.early

    def rename_clocks(self, mapping) -> "SetClockLatency":
        return replace(self, objects=self.objects.rename_clocks(mapping))


@dataclass(frozen=True)
class SetClockUncertainty(Constraint):
    """``set_clock_uncertainty`` — clock jitter/skew margin."""

    value: float
    objects: Optional[ObjectRef] = None     # clocks or endpoints
    from_clock: str = ""
    to_clock: str = ""
    setup: bool = False
    hold: bool = False

    command = "set_clock_uncertainty"

    def key(self):
        obj = self.objects.normalized() if self.objects else None
        return (self.command, obj, self.from_clock, self.to_clock,
                self.setup, self.hold)

    @property
    def is_min(self) -> bool:
        # Uncertainty is a pessimism margin: a *larger* value is safer for
        # both setup and hold, so the merge picks the max; is_min is False.
        return False

    def rename_clocks(self, mapping) -> "SetClockUncertainty":
        obj = self.objects.rename_clocks(mapping) if self.objects else None
        return replace(
            self,
            objects=obj,
            from_clock=mapping.get(self.from_clock, self.from_clock),
            to_clock=mapping.get(self.to_clock, self.to_clock),
        )


@dataclass(frozen=True)
class SetClockTransition(Constraint):
    """``set_clock_transition`` — ideal-clock slew at sequential clock pins."""

    value: float
    objects: ObjectRef                      # clocks
    min_flag: bool = False
    max_flag: bool = False
    rise: bool = False
    fall: bool = False

    command = "set_clock_transition"

    def key(self):
        return (self.command, self.objects.normalized(), self.min_flag,
                self.max_flag, self.rise, self.fall)

    @property
    def is_min(self) -> bool:
        return self.min_flag

    def rename_clocks(self, mapping) -> "SetClockTransition":
        return replace(self, objects=self.objects.rename_clocks(mapping))


@dataclass(frozen=True)
class SetPropagatedClock(Constraint):
    """``set_propagated_clock`` — switch from ideal to propagated clocking."""

    objects: ObjectRef

    command = "set_propagated_clock"

    def key(self):
        return (self.command, self.objects.normalized())

    def rename_clocks(self, mapping) -> "SetPropagatedClock":
        return replace(self, objects=self.objects.rename_clocks(mapping))


@dataclass(frozen=True)
class SetClockSense(Constraint):
    """``set_clock_sense`` — clock sense / propagation control on pins.

    The merged-mode refinement emits ``-stop_propagation`` instances to block
    clocks that no individual mode propagates (Sections 3.1.8 and 3.2).
    """

    pins: ObjectRef
    clocks: Optional[ObjectRef] = None
    stop_propagation: bool = False
    positive: bool = False
    negative: bool = False

    command = "set_clock_sense"

    def key(self):
        clk = self.clocks.normalized() if self.clocks else None
        return (self.command, self.pins.normalized(), clk,
                self.stop_propagation, self.positive, self.negative)

    def rename_clocks(self, mapping) -> "SetClockSense":
        clk = self.clocks.rename_clocks(mapping) if self.clocks else None
        return replace(self, clocks=clk)


# ---------------------------------------------------------------------------
# external delays (unioned, Section 3.1.3)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SetInputDelay(Constraint):
    """``set_input_delay`` — external arrival at an input port."""

    value: float
    objects: ObjectRef
    clock: str = ""
    clock_fall: bool = False
    add_delay: bool = False
    min_flag: bool = False
    max_flag: bool = False
    rise: bool = False
    fall: bool = False

    command = "set_input_delay"

    def key(self):
        return (self.command, self.objects.normalized(), self.clock,
                self.clock_fall, self.min_flag, self.max_flag,
                self.rise, self.fall)

    def rename_clocks(self, mapping) -> "SetInputDelay":
        return replace(self, clock=mapping.get(self.clock, self.clock))


@dataclass(frozen=True)
class SetOutputDelay(Constraint):
    """``set_output_delay`` — external requirement at an output port."""

    value: float
    objects: ObjectRef
    clock: str = ""
    clock_fall: bool = False
    add_delay: bool = False
    min_flag: bool = False
    max_flag: bool = False
    rise: bool = False
    fall: bool = False

    command = "set_output_delay"

    def key(self):
        return (self.command, self.objects.normalized(), self.clock,
                self.clock_fall, self.min_flag, self.max_flag,
                self.rise, self.fall)

    def rename_clocks(self, mapping) -> "SetOutputDelay":
        return replace(self, clock=mapping.get(self.clock, self.clock))


# ---------------------------------------------------------------------------
# case analysis / disable timing (intersected, Sections 3.1.4-3.1.5)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SetCaseAnalysis(Constraint):
    """``set_case_analysis`` — pin held at a constant logic value."""

    value: int                              # 0 or 1
    objects: ObjectRef

    command = "set_case_analysis"

    def key(self):
        # Identity is the pin set; the value is the "payload" whose conflict
        # across modes triggers the drop-and-refine handling of 3.1.4.
        return (self.command, self.objects.normalized())


@dataclass(frozen=True)
class SetDisableTiming(Constraint):
    """``set_disable_timing`` — kill timing arcs of cells/pins/ports."""

    objects: ObjectRef
    from_pin: str = ""
    to_pin: str = ""

    command = "set_disable_timing"

    def key(self):
        return (self.command, self.objects.normalized(), self.from_pin,
                self.to_pin)


# ---------------------------------------------------------------------------
# drive / load environment (tolerance-merged, Section 3.1.6)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SetInputTransition(Constraint):
    """``set_input_transition`` — external slew at input ports."""

    value: float
    objects: ObjectRef
    min_flag: bool = False
    max_flag: bool = False
    rise: bool = False
    fall: bool = False

    command = "set_input_transition"

    def key(self):
        return (self.command, self.objects.normalized(), self.min_flag,
                self.max_flag, self.rise, self.fall)

    @property
    def is_min(self) -> bool:
        return self.min_flag


@dataclass(frozen=True)
class SetDrive(Constraint):
    """``set_drive`` — external driving resistance at input ports."""

    value: float
    objects: ObjectRef
    min_flag: bool = False
    max_flag: bool = False

    command = "set_drive"

    def key(self):
        return (self.command, self.objects.normalized(), self.min_flag,
                self.max_flag)

    @property
    def is_min(self) -> bool:
        return self.min_flag


@dataclass(frozen=True)
class SetDrivingCell(Constraint):
    """``set_driving_cell`` — drive an input port with a library cell."""

    objects: ObjectRef
    lib_cell: str = ""
    pin: str = ""

    command = "set_driving_cell"

    def key(self):
        return (self.command, self.objects.normalized(), self.lib_cell,
                self.pin)


@dataclass(frozen=True)
class SetLoad(Constraint):
    """``set_load`` — capacitive load on ports/nets."""

    value: float
    objects: ObjectRef
    min_flag: bool = False
    max_flag: bool = False

    command = "set_load"

    def key(self):
        return (self.command, self.objects.normalized(), self.min_flag,
                self.max_flag)

    @property
    def is_min(self) -> bool:
        return self.min_flag


# ---------------------------------------------------------------------------
# timing exceptions (intersected + uniquified, Sections 3.1.9-3.1.10)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PathSpec:
    """The ``-from/-through/-to`` selection shared by all exceptions.

    ``through`` is an ordered tuple of selections: each ``-through`` option
    adds one element, and a path must traverse them in order.
    """

    from_refs: Tuple[ObjectRef, ...] = ()
    through_refs: Tuple[ObjectRef, ...] = ()
    to_refs: Tuple[ObjectRef, ...] = ()
    rise_from: bool = False
    fall_from: bool = False
    rise_to: bool = False
    fall_to: bool = False

    def normalized(self) -> "PathSpec":
        return PathSpec(
            tuple(sorted(r.normalized() for r in self.from_refs)),
            tuple(r.normalized() for r in self.through_refs),
            tuple(sorted(r.normalized() for r in self.to_refs)),
            self.rise_from, self.fall_from, self.rise_to, self.fall_to,
        )

    @property
    def is_empty(self) -> bool:
        return not (self.from_refs or self.through_refs or self.to_refs)

    def from_clock_names(self) -> Tuple[str, ...]:
        names = []
        for ref in self.from_refs:
            if ref.is_clock_ref:
                names.extend(ref.patterns)
        return tuple(names)

    def to_clock_names(self) -> Tuple[str, ...]:
        names = []
        for ref in self.to_refs:
            if ref.is_clock_ref:
                names.extend(ref.patterns)
        return tuple(names)

    def rename_clocks(self, mapping) -> "PathSpec":
        return PathSpec(
            tuple(r.rename_clocks(mapping) for r in self.from_refs),
            tuple(r.rename_clocks(mapping) for r in self.through_refs),
            tuple(r.rename_clocks(mapping) for r in self.to_refs),
            self.rise_from, self.fall_from, self.rise_to, self.fall_to,
        )


@dataclass(frozen=True)
class SetFalsePath(Constraint):
    """``set_false_path`` — exclude matching paths from analysis."""

    spec: PathSpec
    setup: bool = False
    hold: bool = False

    command = "set_false_path"

    def key(self):
        return (self.command, self.spec.normalized(), self.setup, self.hold)

    def rename_clocks(self, mapping) -> "SetFalsePath":
        return replace(self, spec=self.spec.rename_clocks(mapping))


@dataclass(frozen=True)
class SetMulticyclePath(Constraint):
    """``set_multicycle_path`` — relax matching paths by N cycles."""

    multiplier: int
    spec: PathSpec
    setup: bool = False
    hold: bool = False
    start: bool = False
    end: bool = False

    command = "set_multicycle_path"

    def key(self):
        # The multiplier IS identity for exceptions: MCP 2 and MCP 3 on the
        # same spec are different constraints, not the same one with values.
        return (self.command, self.multiplier, self.spec.normalized(),
                self.setup, self.hold, self.start, self.end)

    def rename_clocks(self, mapping) -> "SetMulticyclePath":
        return replace(self, spec=self.spec.rename_clocks(mapping))

    def problems(self) -> List[str]:
        if self.multiplier < 0:
            return [f"multiplier must be >= 0, got {self.multiplier}"]
        return []


@dataclass(frozen=True)
class SetMaxDelay(Constraint):
    """``set_max_delay`` — point-to-point max-delay override."""

    value: float
    spec: PathSpec

    command = "set_max_delay"

    def key(self):
        return (self.command, round(self.value, 9), self.spec.normalized())

    def rename_clocks(self, mapping) -> "SetMaxDelay":
        return replace(self, spec=self.spec.rename_clocks(mapping))


@dataclass(frozen=True)
class SetMinDelay(Constraint):
    """``set_min_delay`` — point-to-point min-delay override."""

    value: float
    spec: PathSpec

    command = "set_min_delay"

    def key(self):
        return (self.command, round(self.value, 9), self.spec.normalized())

    def rename_clocks(self, mapping) -> "SetMinDelay":
        return replace(self, spec=self.spec.rename_clocks(mapping))


#: Exceptions in path-spec form.
EXCEPTION_TYPES = (SetFalsePath, SetMulticyclePath, SetMaxDelay, SetMinDelay)

#: Clock-attached constraints merged under tolerance (Section 3.1.2).
CLOCK_ATTACHED_TYPES = (
    SetClockLatency,
    SetClockUncertainty,
    SetClockTransition,
)

#: Drive/load environment constraints merged under tolerance (Section 3.1.6).
DRIVE_LOAD_TYPES = (SetInputTransition, SetDrive, SetDrivingCell, SetLoad)
