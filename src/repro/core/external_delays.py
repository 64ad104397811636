"""Preliminary merging step 3.1.3: union of external delay constraints.

Every unique ``set_input_delay`` / ``set_output_delay`` (after clock-name
mapping) is added to the merged mode.  When a port accumulates delays
relative to several clocks, subsequent constraints carry ``-add_delay`` so
they accumulate instead of overriding — exactly the form the paper's
Constraint Set 5 shows for the merged mode (CSTR2/CSTR4).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Set, Tuple

from repro.core.steps import MergeContext, StepReport
from repro.obs.provenance import RULE_UNION
from repro.sdc.commands import SetInputDelay, SetOutputDelay


def merge_external_delays(context: MergeContext) -> StepReport:
    report = context.report("external delays (3.1.3)", "external_delays")
    # identity -> emitted merged constraint (for source accumulation)
    seen: Dict[Tuple, object] = {}
    # (command, normalized port ref) -> first constraint already emitted?
    first_on_port: Set[Tuple] = set()

    for mode in context.modes:
        mapping = context.clock_maps[mode.name]
        for constraint in mode.of_type(SetInputDelay, SetOutputDelay):
            mapped = constraint.rename_clocks(mapping)
            identity = (mapped.key(), round(mapped.value, 9))
            emitted = seen.get(identity)
            if emitted is None:
                port_key = (mapped.command, mapped.objects.normalized(),
                            mapped.min_flag, mapped.max_flag)
                if port_key in first_on_port:
                    mapped = replace(mapped, add_delay=True)
                else:
                    first_on_port.add(port_key)
                emitted = seen[identity] = mapped
            report.record("added", emitted, RULE_UNION, [mode.name])
    return report
