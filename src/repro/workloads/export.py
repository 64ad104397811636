"""Export a generated workload as on-disk design files.

Writes the netlist as structural Verilog plus one SDC file per mode —
the file layout the :mod:`repro.cli` tool (and any external consumer)
expects.  Round-trips through the library's own readers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.netlist.verilog import write_verilog
from repro.sdc.writer import write_mode
from repro.workloads.generator import Workload


def export_workload(workload: Workload, directory: Union[str, Path]
                    ) -> Dict[str, Path]:
    """Write ``workload`` into ``directory``; returns the written paths.

    The returned mapping has a ``"netlist"`` entry plus one entry per mode
    name.  The directory is created if needed; existing files are
    overwritten (exports are deterministic, so overwriting is idempotent
    for the same spec).
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}

    netlist_path = root / f"{workload.netlist.name}.v"
    netlist_path.write_text(write_verilog(workload.netlist))
    written["netlist"] = netlist_path

    for mode in workload.modes:
        mode_path = root / f"{mode.name}.sdc"
        mode_path.write_text(write_mode(mode))
        written[mode.name] = mode_path
    return written
