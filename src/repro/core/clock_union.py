"""Preliminary merging step 3.1.1: union of clocks.

Iterate through the clocks of every individual mode and add each
non-duplicate clock to the merged mode.  A clock is a duplicate when the
merged mode already has a clock with the same *sources and waveform*
(names do not matter).  Conflicting names of non-duplicate clocks are
uniquified with ``_1``-style suffixes, and a two-way map between
individual and merged clock names is recorded on the context — every later
step uses those maps to correlate clock-based constraints.

The maps follow from each mode's clock signatures alone
(:func:`clock_signatures`, :func:`union_clocks`), which is what lets the
mergeability pre-check derive a pair's maps from per-mode tables.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from dataclasses import replace

from repro.obs.provenance import RULE_UNION
from repro.sdc.commands import CreateClock, CreateGeneratedClock, ObjectRef
from repro.sdc.mode import Mode
from repro.sdc.object_query import resolver_for
from repro.core.steps import MergeContext, StepReport


def _source_key(netlist, ref: Optional[ObjectRef]) -> Tuple[str, ...]:
    """Resolve clock sources to a canonical tuple of design object names."""
    if ref is None or not ref.patterns:
        return ()
    resolver = resolver_for(netlist)
    names = resolver.resolve_to_pin_like(ref)
    if not names:
        # Unresolvable patterns still participate in duplicate detection.
        names = list(ref.patterns)
    return tuple(sorted(set(names)))


def _clock_signature(netlist, clock: CreateClock) -> Tuple:
    return (
        _source_key(netlist, clock.sources),
        round(clock.period, 9),
        tuple(round(w, 9) for w in clock.effective_waveform()),
    )


def _unique_name(base: str, taken: Set[str]) -> str:
    if base not in taken:
        return base
    suffix = 1
    while f"{base}_{suffix}" in taken:
        suffix += 1
    return f"{base}_{suffix}"


class ClockSignatures(NamedTuple):
    """One mode's clocks with what duplicate detection compares."""

    #: (clock, (sources, period, waveform)) per create_clock
    primary: List[Tuple[CreateClock, Tuple]]
    #: (clock, own sources, master source) per create_generated_clock;
    #: the mapped master completes the signature once it is known
    generated: List[Tuple[CreateGeneratedClock, Tuple, Tuple]]


def clock_signatures(netlist, mode: Mode) -> ClockSignatures:
    """The clock signatures of ``mode`` against ``netlist``."""
    generated = []
    for clock in mode.generated_clocks():
        own = _source_key(netlist, clock.sources) if clock.sources \
            else _source_key(netlist, clock.source)
        generated.append((clock, own, _source_key(netlist, clock.source)))
    return ClockSignatures(
        [(clock, _clock_signature(netlist, clock))
         for clock in mode.clocks()],
        generated)


class UnionEntry(NamedTuple):
    """Where one individual-mode clock lands in the merged mode."""

    mode: str
    clock: CreateClock
    merged_name: str
    #: an earlier clock with the same signature already took the name
    duplicate: bool
    #: the mapped master of a generated clock ("" for a primary clock)
    master: str


def union_clocks(signatures: Sequence[Tuple[str, ClockSignatures]],
                 clock_maps: Dict[str, Dict[str, str]]
                 ) -> List[UnionEntry]:
    """Step 3.1.1's clock union over (mode name, signatures) in mode order.

    Fills ``clock_maps`` (mode name -> original -> merged clock name) and
    returns every clock's placement: primary clocks of all modes first,
    then generated clocks, whose signature includes the mapped master.
    """
    by_signature: Dict[Tuple, str] = {}
    taken: Set[str] = set()
    entries: List[UnionEntry] = []

    def place(mode_name: str, clock, signature: Tuple, master: str) -> None:
        mapping = clock_maps[mode_name]
        existing = by_signature.get(signature)
        if existing is not None:
            mapping[clock.name] = existing
            entries.append(UnionEntry(mode_name, clock, existing, True,
                                      master))
            return
        merged_name = _unique_name(clock.name, taken)
        by_signature[signature] = merged_name
        taken.add(merged_name)
        mapping[clock.name] = merged_name
        entries.append(UnionEntry(mode_name, clock, merged_name, False,
                                  master))

    for mode_name, signed in signatures:
        for clock, signature in signed.primary:
            place(mode_name, clock, signature, "")
    for mode_name, signed in signatures:
        for clock, own, source in signed.generated:
            mapping = clock_maps[mode_name]
            master = mapping.get(clock.master_clock, clock.master_clock)
            place(mode_name, clock,
                  ("generated", own, source, master, clock.divide_by,
                   clock.multiply_by, clock.invert),
                  master)
    return entries


def merge_clocks(context: MergeContext) -> StepReport:
    """Run the clock-union step, filling ``context.clock_maps``."""
    report = context.report("clock union (3.1.1)", "clock_union")
    signatures = [(mode.name, clock_signatures(context.netlist, mode))
                  for mode in context.modes]
    # merged clock name -> constraint added
    merged_clocks: Dict[str, object] = {}
    for entry in union_clocks(signatures, context.clock_maps):
        clock, name = entry.clock, entry.merged_name
        if entry.duplicate:
            context.reverse_clock_map[name].append((entry.mode, clock.name))
            report.record("added", merged_clocks[name], RULE_UNION,
                          [entry.mode])
            continue
        if isinstance(clock, CreateGeneratedClock):
            merged = replace(clock, name=name, master_clock=entry.master,
                             add=True)
            kind = "generated clock"
        else:
            if name != clock.name:
                report.note(
                    f"clock {clock.name!r} of mode {entry.mode!r} renamed "
                    f"to {name!r} in the merged mode")
            merged = replace(clock, name=name, add=True)
            kind = "clock"
        report.record("added", merged, RULE_UNION, [entry.mode],
                      f"from {kind} {clock.name!r}")
        merged_clocks[name] = merged
        context.reverse_clock_map[name] = [(entry.mode, clock.name)]
    return report
