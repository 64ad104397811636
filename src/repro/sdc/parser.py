"""Parser: SDC text -> :class:`~repro.sdc.mode.Mode`.

Built on :mod:`repro.sdc.tokenizer`.  Each supported command has a handler
that validates options and produces the corresponding frozen constraint
dataclass.  Benign commands that do not affect mode merging (``set_units``,
``current_design``, ...) are recorded in ``ParseResult.ignored`` rather
than rejected, mirroring how sign-off tools tolerate environment setup in
constraint files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.diagnostics import (
    DegradationPolicy,
    Diagnostic,
    DiagnosticCollector,
    Severity,
    diagnostic_from_error,
)
from repro.errors import SdcCommandError, SdcError
from repro.sdc.commands import (
    ClockGroupKind,
    Constraint,
    CreateClock,
    CreateGeneratedClock,
    ObjectRef,
    PathSpec,
    RefKind,
    SetCaseAnalysis,
    SetClockGroups,
    SetClockLatency,
    SetClockSense,
    SetClockTransition,
    SetClockUncertainty,
    SetDisableTiming,
    SetDrive,
    SetDrivingCell,
    SetFalsePath,
    SetInputDelay,
    SetInputTransition,
    SetLoad,
    SetMaxDelay,
    SetMinDelay,
    SetMulticyclePath,
    SetOutputDelay,
    SetPropagatedClock,
)
from repro.sdc.mode import Mode
from repro.sdc.tokenizer import Command, Token, TokenKind, tokenize

#: Markers for the query commands that select by role rather than pattern.
ALL_INPUTS = "<all_inputs>"
ALL_OUTPUTS = "<all_outputs>"
ALL_CLOCKS = "<all_clocks>"
ALL_REGISTERS = "<all_registers>"

_QUERY_KINDS = {
    "get_ports": RefKind.PORT,
    "get_port": RefKind.PORT,
    "get_pins": RefKind.PIN,
    "get_pin": RefKind.PIN,
    "get_cells": RefKind.CELL,
    "get_cell": RefKind.CELL,
    "get_nets": RefKind.NET,
    "get_net": RefKind.NET,
    "get_clocks": RefKind.CLOCK,
    "get_clock": RefKind.CLOCK,
}

_ROLE_QUERIES = {
    "all_inputs": ALL_INPUTS,
    "all_outputs": ALL_OUTPUTS,
    "all_clocks": ALL_CLOCKS,
    "all_registers": ALL_REGISTERS,
}

#: Commands silently recorded but not modeled.
_IGNORED_COMMANDS = {
    "set_units",
    "current_design",
    "set_operating_conditions",
    "set_wire_load_model",
    "set_wire_load_mode",
    "set_max_area",
    "set_max_fanout",
    "set_max_transition",
    "set_max_capacitance",
    "group_path",
    "set_ideal_network",
    "set_dont_touch",
    "set_dont_use",
}


@dataclass
class ParseResult:
    """Outcome of :func:`parse_sdc`."""

    mode: Mode
    ignored: List[str] = field(default_factory=list)
    #: commands skipped under a recovery policy (one diagnostic each)
    skipped: List[str] = field(default_factory=list)
    #: diagnostics recorded while parsing this text
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.diagnostics


def parse_sdc(text: str, mode_name: str = "mode",
              policy: Union[DegradationPolicy, str] = DegradationPolicy.STRICT,
              collector: Optional[DiagnosticCollector] = None,
              source: str = "") -> ParseResult:
    """Parse SDC ``text`` into a mode named ``mode_name``.

    ``policy`` selects the recovery behaviour:

    * ``STRICT`` (default) — raise on the first problem, exactly the
      historical behaviour.
    * ``LENIENT`` — unsupported commands and commands with invalid
      arguments are skipped and recorded as one diagnostic each
      (``SDC001`` / ``SDC003``); syntax errors still raise.
    * ``PERMISSIVE`` — additionally, unparseable lines are skipped and
      recorded (``SDC002``); no :class:`~repro.errors.SdcError` ever
      escapes.

    Diagnostics land in ``collector`` when given (and always in
    ``ParseResult.diagnostics``); ``source`` labels them, typically with
    the SDC file name.
    """
    policy = DegradationPolicy.coerce(policy)
    sink = collector if collector is not None else DiagnosticCollector()
    start = len(sink)
    mode = Mode(mode_name)
    ignored: List[str] = []
    skipped: List[str] = []
    commands = tokenize(text, recover=policy.recovers_syntax, collector=sink)
    for command in commands:
        handler = _HANDLERS.get(command.name)
        if handler is None:
            if command.name in _IGNORED_COMMANDS:
                ignored.append(command.name)
                continue
            if not policy.recovers_commands:
                raise SdcCommandError(command.name, "unsupported command",
                                      command.line)
            skipped.append(command.name)
            sink.report("SDC001",
                        f"{command.name}: unsupported command (skipped)",
                        severity=Severity.WARNING, source=source,
                        line=command.line)
            continue
        try:
            constraint = handler(command)
        except SdcError as exc:
            if not policy.recovers_commands:
                raise
            skipped.append(command.name)
            diagnostic = diagnostic_from_error(exc, source=source,
                                               severity=Severity.WARNING)
            if not diagnostic.line:
                diagnostic = replace(diagnostic, line=command.line)
            sink.add(diagnostic)
            continue
        except Exception as exc:  # defensive: a handler bug on hostile text
            if not policy.recovers_syntax:
                raise
            skipped.append(command.name)
            sink.report("SDC003",
                        f"{command.name}: {exc!r} (skipped)",
                        severity=Severity.WARNING, source=source,
                        line=command.line)
            continue
        if constraint is None:
            continue
        if policy.recovers_commands:
            issues = constraint.problems()
            if issues:
                skipped.append(command.name)
                sink.report("SDC003",
                            f"{command.name}: {'; '.join(issues)} (skipped)",
                            severity=Severity.WARNING, source=source,
                            line=command.line)
                continue
        mode.add(constraint)
    new_diagnostics = list(sink.diagnostics[start:])
    if source:
        new_diagnostics = [d if d.source else replace(d, source=source)
                           for d in new_diagnostics]
        sink.diagnostics[start:] = new_diagnostics
    return ParseResult(mode, ignored, skipped, new_diagnostics)


def parse_mode(text: str, mode_name: str = "mode",
               policy: Union[DegradationPolicy, str] = DegradationPolicy.STRICT,
               collector: Optional[DiagnosticCollector] = None,
               source: str = "") -> Mode:
    """Convenience wrapper returning just the mode."""
    return parse_sdc(text, mode_name, policy=policy, collector=collector,
                     source=source).mode


# ---------------------------------------------------------------------------
# argument scanning
# ---------------------------------------------------------------------------
def _is_flag(tok: Token) -> bool:
    """A bare word that names an option (``-clock``), not a number."""
    return tok.kind is TokenKind.WORD and tok.value.startswith("-") \
        and not _is_number(tok.value)


class _Args:
    """Scanned arguments of one command."""

    def __init__(self, command: Command, valued: Sequence[str],
                 flags: Sequence[str], multi: Sequence[str] = ()):
        self.command = command
        self.options: Dict[str, object] = {}
        self.multi_options: Dict[str, List[object]] = {m: [] for m in multi}
        self.positionals: List[Token] = []
        valued_set = set(valued) | set(multi)
        flag_set = set(flags)
        tokens = command.tokens
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if _is_flag(tok):
                opt = tok.value[1:]
                if opt in flag_set:
                    self.options[opt] = True
                    i += 1
                    continue
                if opt in valued_set:
                    if i + 1 >= len(tokens):
                        raise SdcCommandError(
                            command.name, f"option -{opt} needs a value",
                            tok.line)
                    value_tok = tokens[i + 1]
                    if _is_flag(value_tok):
                        raise SdcCommandError(
                            command.name,
                            f"option -{opt} needs a value, got the flag "
                            f"{value_tok.value}", tok.line)
                    if opt in self.multi_options:
                        self.multi_options[opt].append(value_tok)
                    else:
                        self.options[opt] = value_tok
                    i += 2
                    continue
                raise SdcCommandError(command.name, f"unknown option -{opt}",
                                      tok.line)
            self.positionals.append(tok)
            i += 1

    # -- typed getters --------------------------------------------------
    def flag(self, name: str) -> bool:
        return bool(self.options.get(name, False))

    def str_opt(self, name: str, default: str = "") -> str:
        tok = self.options.get(name)
        if tok is None:
            return default
        return _token_text(tok)

    def float_opt(self, name: str, default: Optional[float] = None) -> Optional[float]:
        tok = self.options.get(name)
        if tok is None:
            return default
        try:
            return float(_token_text(tok))
        except ValueError:
            raise SdcCommandError(
                self.command.name,
                f"option -{name} expects a number, got {_token_text(tok)!r}",
                self.command.line) from None

    def int_opt(self, name: str, default: Optional[int] = None) -> Optional[int]:
        value = self.float_opt(name)
        if value is None:
            return default
        return int(value)

    def ref_opt(self, name: str) -> Optional[ObjectRef]:
        tok = self.options.get(name)
        if tok is None:
            return None
        return _to_ref(tok)

    def ref_multi(self, name: str) -> List[ObjectRef]:
        return [_to_ref(t) for t in self.multi_options.get(name, [])]

    def waveform_opt(self, name: str) -> Tuple[float, ...]:
        tok = self.options.get(name)
        if tok is None:
            return ()
        if tok.kind is TokenKind.BRACE:
            items = tok.items
        else:
            items = _token_text(tok).split()
        try:
            return tuple(float(x) for x in items)
        except ValueError:
            raise SdcCommandError(
                self.command.name,
                f"-{name} expects numbers, got {items!r}",
                self.command.line) from None

    def positional_value(self, index: int = 0) -> float:
        if index >= len(self.positionals):
            raise SdcCommandError(self.command.name,
                                  "missing required value argument",
                                  self.command.line)
        text = _token_text(self.positionals[index])
        try:
            return float(text)
        except ValueError:
            raise SdcCommandError(
                self.command.name,
                f"expected a numeric value, got {text!r}",
                self.command.line) from None

    def positional_ref(self, start: int = 0) -> Optional[ObjectRef]:
        """Combine remaining positionals into one ObjectRef (or None)."""
        toks = self.positionals[start:]
        if not toks:
            return None
        refs = [_to_ref(t) for t in toks]
        return _merge_refs(refs, self.command)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _token_text(tok: Token) -> str:
    if tok.kind is TokenKind.BRACKET:
        return " ".join(_token_text(t) for t in tok.subtokens)
    return tok.value


def _to_ref(tok: Token) -> ObjectRef:
    """Convert an argument token into an ObjectRef."""
    if tok.kind is TokenKind.BRACKET:
        if not tok.subtokens:
            return ObjectRef.auto()
        head = tok.subtokens[0]
        if head.kind is TokenKind.WORD and head.value in _QUERY_KINDS:
            kind = _QUERY_KINDS[head.value]
            patterns: List[str] = []
            for sub in tok.subtokens[1:]:
                if sub.kind is TokenKind.BRACE:
                    patterns.extend(sub.items)
                elif sub.kind is TokenKind.BRACKET:
                    inner = _to_ref(sub)
                    patterns.extend(inner.patterns)
                elif sub.kind is TokenKind.STRING:
                    patterns.extend(sub.value.split())
                elif not sub.value.startswith("-"):
                    patterns.append(sub.value)
                # option flags inside queries (-hierarchical etc.) ignored
            return ObjectRef(kind, tuple(patterns))
        if head.kind is TokenKind.WORD and head.value in _ROLE_QUERIES:
            return ObjectRef.auto(_ROLE_QUERIES[head.value])
        # Bare bracketed names like [and1/Z] used in the paper's examples.
        patterns = []
        for sub in tok.subtokens:
            if sub.kind is TokenKind.BRACE:
                patterns.extend(sub.items)
            else:
                patterns.append(sub.value)
        return ObjectRef.auto(*patterns)
    if tok.kind is TokenKind.BRACE:
        return ObjectRef.auto(*tok.items)
    if tok.kind is TokenKind.STRING:
        return ObjectRef.auto(*tok.value.split())
    return ObjectRef.auto(tok.value)


def _merge_refs(refs: List[ObjectRef], command: Command) -> ObjectRef:
    if len(refs) == 1:
        return refs[0]
    kinds = {r.kind for r in refs}
    if len(kinds) == 1:
        kind = kinds.pop()
    else:
        kind = RefKind.AUTO
    patterns: List[str] = []
    for ref in refs:
        patterns.extend(ref.patterns)
    return ObjectRef(kind, tuple(patterns))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------
def _h_create_clock(command: Command) -> Constraint:
    # "-p" is the abbreviation used in the paper's Constraint Set 6.
    args = _Args(command, valued=["name", "period", "p", "waveform", "comment"],
                 flags=["add"])
    period = args.float_opt("period")
    if period is None:
        period = args.float_opt("p")
    if period is None:
        raise SdcCommandError(command.name, "missing -period", command.line)
    sources = args.positional_ref()
    name = args.str_opt("name")
    if not name:
        if sources is None or not sources.patterns:
            raise SdcCommandError(command.name,
                                  "clock needs -name or a source",
                                  command.line)
        name = sources.patterns[0]
    return CreateClock(
        name=name,
        period=period,
        waveform=args.waveform_opt("waveform"),
        sources=sources,
        add=args.flag("add"),
        comment=args.str_opt("comment"),
    )


def _h_create_generated_clock(command: Command) -> Constraint:
    args = _Args(
        command,
        valued=["name", "source", "master_clock", "divide_by", "multiply_by",
                "comment"],
        flags=["add", "invert", "combinational"],
    )
    source = args.ref_opt("source")
    if source is None:
        raise SdcCommandError(command.name, "missing -source", command.line)
    name = args.str_opt("name")
    if not name:
        raise SdcCommandError(command.name, "missing -name", command.line)
    return CreateGeneratedClock(
        name=name,
        source=source,
        sources=args.positional_ref(),
        master_clock=args.str_opt("master_clock"),
        divide_by=args.int_opt("divide_by", 1) or 1,
        multiply_by=args.int_opt("multiply_by", 1) or 1,
        invert=args.flag("invert"),
        add=args.flag("add"),
        comment=args.str_opt("comment"),
    )


def _h_set_clock_groups(command: Command) -> Constraint:
    args = _Args(command,
                 valued=["name"],
                 flags=["physically_exclusive", "logically_exclusive",
                        "asynchronous", "allow_paths"],
                 multi=["group"])
    groups = tuple(tuple(r.patterns) for r in args.ref_multi("group"))
    if len(groups) < 2:
        raise SdcCommandError(command.name, "need at least two -group",
                              command.line)
    if args.flag("asynchronous"):
        kind = ClockGroupKind.ASYNCHRONOUS
    elif args.flag("logically_exclusive"):
        kind = ClockGroupKind.LOGICALLY_EXCLUSIVE
    else:
        kind = ClockGroupKind.PHYSICALLY_EXCLUSIVE
    return SetClockGroups(groups=groups, kind=kind, name=args.str_opt("name"))


def _h_set_clock_latency(command: Command) -> Constraint:
    args = _Args(command, valued=[],
                 flags=["source", "min", "max", "early", "late", "rise",
                        "fall"])
    value = args.positional_value(0)
    objects = args.positional_ref(1)
    if objects is None:
        raise SdcCommandError(command.name, "missing object list", command.line)
    return SetClockLatency(
        value=value,
        objects=objects,
        source=args.flag("source"),
        min_flag=args.flag("min"),
        max_flag=args.flag("max"),
        early=args.flag("early"),
        late=args.flag("late"),
    )


def _h_set_clock_uncertainty(command: Command) -> Constraint:
    args = _Args(command, valued=["from", "to", "rise_from", "fall_from",
                                  "rise_to", "fall_to"],
                 flags=["setup", "hold"])
    value = args.positional_value(0)
    from_ref = args.ref_opt("from") or args.ref_opt("rise_from") \
        or args.ref_opt("fall_from")
    to_ref = args.ref_opt("to") or args.ref_opt("rise_to") \
        or args.ref_opt("fall_to")
    return SetClockUncertainty(
        value=value,
        objects=args.positional_ref(1),
        from_clock=from_ref.patterns[0] if from_ref and from_ref.patterns else "",
        to_clock=to_ref.patterns[0] if to_ref and to_ref.patterns else "",
        setup=args.flag("setup"),
        hold=args.flag("hold"),
    )


def _h_set_clock_transition(command: Command) -> Constraint:
    args = _Args(command, valued=[], flags=["min", "max", "rise", "fall"])
    value = args.positional_value(0)
    objects = args.positional_ref(1)
    if objects is None:
        raise SdcCommandError(command.name, "missing clock list", command.line)
    return SetClockTransition(
        value=value,
        objects=objects,
        min_flag=args.flag("min"),
        max_flag=args.flag("max"),
        rise=args.flag("rise"),
        fall=args.flag("fall"),
    )


def _h_set_propagated_clock(command: Command) -> Constraint:
    args = _Args(command, valued=[], flags=[])
    objects = args.positional_ref()
    if objects is None:
        raise SdcCommandError(command.name, "missing object list", command.line)
    return SetPropagatedClock(objects=objects)


def _h_set_clock_sense(command: Command) -> Constraint:
    args = _Args(command, valued=["clock", "clocks"],
                 flags=["stop_propagation", "positive", "negative"])
    pins = args.positional_ref()
    if pins is None:
        raise SdcCommandError(command.name, "missing pin list", command.line)
    clocks = args.ref_opt("clocks") or args.ref_opt("clock")
    if clocks is not None and clocks.kind is RefKind.AUTO:
        clocks = ObjectRef(RefKind.CLOCK, clocks.patterns)
    return SetClockSense(
        pins=pins,
        clocks=clocks,
        stop_propagation=args.flag("stop_propagation"),
        positive=args.flag("positive"),
        negative=args.flag("negative"),
    )


def _h_external_delay(command: Command, cls) -> Constraint:
    args = _Args(command, valued=["clock"],
                 flags=["clock_fall", "add_delay", "min", "max", "rise",
                        "fall", "level_sensitive", "network_latency_included",
                        "source_latency_included"])
    value = args.positional_value(0)
    objects = args.positional_ref(1)
    if objects is None:
        raise SdcCommandError(command.name, "missing port list", command.line)
    clock_ref = args.ref_opt("clock")
    clock_name = clock_ref.patterns[0] if clock_ref and clock_ref.patterns \
        else ""
    return cls(
        value=value,
        objects=objects,
        clock=clock_name,
        clock_fall=args.flag("clock_fall"),
        add_delay=args.flag("add_delay"),
        min_flag=args.flag("min"),
        max_flag=args.flag("max"),
        rise=args.flag("rise"),
        fall=args.flag("fall"),
    )


def _h_set_case_analysis(command: Command) -> Constraint:
    args = _Args(command, valued=[], flags=[])
    if not args.positionals:
        raise SdcCommandError(command.name, "missing value", command.line)
    text = _token_text(args.positionals[0])
    if text in ("0", "zero"):
        value = 0
    elif text in ("1", "one"):
        value = 1
    elif text in ("rising", "falling"):
        # Edge case-analysis is rare; model as unknown (no constant).
        raise SdcCommandError(command.name,
                              f"unsupported case value {text!r}", command.line)
    else:
        raise SdcCommandError(command.name,
                              f"invalid case value {text!r}", command.line)
    objects = args.positional_ref(1)
    if objects is None:
        raise SdcCommandError(command.name, "missing object list", command.line)
    return SetCaseAnalysis(value=value, objects=objects)


def _h_set_disable_timing(command: Command) -> Constraint:
    args = _Args(command, valued=["from", "to"], flags=[])
    objects = args.positional_ref()
    if objects is None:
        raise SdcCommandError(command.name, "missing object list", command.line)
    from_ref = args.ref_opt("from")
    to_ref = args.ref_opt("to")
    return SetDisableTiming(
        objects=objects,
        from_pin=from_ref.patterns[0] if from_ref and from_ref.patterns else "",
        to_pin=to_ref.patterns[0] if to_ref and to_ref.patterns else "",
    )


_PATH_VALUED = ["from", "to", "through", "rise_from", "fall_from", "rise_to",
                "fall_to", "rise_through", "fall_through"]


def _path_spec(args: _Args) -> PathSpec:
    def gather(*names: str) -> Tuple[ObjectRef, ...]:
        refs: List[ObjectRef] = []
        for name in names:
            refs.extend(args.ref_multi(name))
        return tuple(refs)

    return PathSpec(
        from_refs=gather("from", "rise_from", "fall_from"),
        through_refs=gather("through", "rise_through", "fall_through"),
        to_refs=gather("to", "rise_to", "fall_to"),
        rise_from=bool(args.multi_options.get("rise_from")),
        fall_from=bool(args.multi_options.get("fall_from")),
        rise_to=bool(args.multi_options.get("rise_to")),
        fall_to=bool(args.multi_options.get("fall_to")),
    )


def _h_set_false_path(command: Command) -> Constraint:
    args = _Args(command, valued=["comment"], flags=["setup", "hold", "rise",
                                                     "fall"],
                 multi=_PATH_VALUED)
    spec = _path_spec(args)
    if spec.is_empty:
        raise SdcCommandError(command.name,
                              "needs at least one of -from/-through/-to",
                              command.line)
    return SetFalsePath(spec=spec, setup=args.flag("setup"),
                        hold=args.flag("hold"))


def _h_set_multicycle_path(command: Command) -> Constraint:
    args = _Args(command, valued=["comment"],
                 flags=["setup", "hold", "start", "end", "rise", "fall"],
                 multi=_PATH_VALUED)
    multiplier = int(args.positional_value(0))
    spec = _path_spec(args)
    return SetMulticyclePath(
        multiplier=multiplier,
        spec=spec,
        setup=args.flag("setup"),
        hold=args.flag("hold"),
        start=args.flag("start"),
        end=args.flag("end"),
    )


def _h_set_max_delay(command: Command) -> Constraint:
    args = _Args(command, valued=["comment"], flags=["rise", "fall",
                                                     "ignore_clock_latency"],
                 multi=_PATH_VALUED)
    return SetMaxDelay(value=args.positional_value(0), spec=_path_spec(args))


def _h_set_min_delay(command: Command) -> Constraint:
    args = _Args(command, valued=["comment"], flags=["rise", "fall",
                                                     "ignore_clock_latency"],
                 multi=_PATH_VALUED)
    return SetMinDelay(value=args.positional_value(0), spec=_path_spec(args))


def _h_set_input_transition(command: Command) -> Constraint:
    args = _Args(command, valued=[], flags=["min", "max", "rise", "fall"])
    value = args.positional_value(0)
    objects = args.positional_ref(1)
    if objects is None:
        raise SdcCommandError(command.name, "missing port list", command.line)
    return SetInputTransition(
        value=value, objects=objects,
        min_flag=args.flag("min"), max_flag=args.flag("max"),
        rise=args.flag("rise"), fall=args.flag("fall"),
    )


def _h_set_drive(command: Command) -> Constraint:
    args = _Args(command, valued=[], flags=["min", "max", "rise", "fall"])
    value = args.positional_value(0)
    objects = args.positional_ref(1)
    if objects is None:
        raise SdcCommandError(command.name, "missing port list", command.line)
    return SetDrive(value=value, objects=objects,
                    min_flag=args.flag("min"), max_flag=args.flag("max"))


def _h_set_driving_cell(command: Command) -> Constraint:
    args = _Args(command, valued=["lib_cell", "pin", "library", "from_pin"],
                 flags=["min", "max", "rise", "fall", "dont_scale",
                        "no_design_rule"])
    objects = args.positional_ref()
    if objects is None:
        raise SdcCommandError(command.name, "missing port list", command.line)
    return SetDrivingCell(objects=objects, lib_cell=args.str_opt("lib_cell"),
                          pin=args.str_opt("pin"))


def _h_set_load(command: Command) -> Constraint:
    args = _Args(command, valued=[],
                 flags=["min", "max", "pin_load", "wire_load", "subtract_pin_load"])
    value = args.positional_value(0)
    objects = args.positional_ref(1)
    if objects is None:
        raise SdcCommandError(command.name, "missing object list", command.line)
    return SetLoad(value=value, objects=objects,
                   min_flag=args.flag("min"), max_flag=args.flag("max"))


_HANDLERS: Dict[str, Callable[[Command], Optional[Constraint]]] = {
    "create_clock": _h_create_clock,
    "create_generated_clock": _h_create_generated_clock,
    "set_clock_groups": _h_set_clock_groups,
    "set_clock_latency": _h_set_clock_latency,
    "set_clock_uncertainty": _h_set_clock_uncertainty,
    "set_clock_transition": _h_set_clock_transition,
    "set_propagated_clock": _h_set_propagated_clock,
    "set_clock_sense": _h_set_clock_sense,
    "set_input_delay": lambda c: _h_external_delay(c, SetInputDelay),
    "set_output_delay": lambda c: _h_external_delay(c, SetOutputDelay),
    "set_case_analysis": _h_set_case_analysis,
    "set_disable_timing": _h_set_disable_timing,
    "set_false_path": _h_set_false_path,
    "set_multicycle_path": _h_set_multicycle_path,
    "set_max_delay": _h_set_max_delay,
    "set_min_delay": _h_set_min_delay,
    "set_input_transition": _h_set_input_transition,
    "set_drive": _h_set_drive,
    "set_driving_cell": _h_set_driving_cell,
    "set_load": _h_set_load,
}
