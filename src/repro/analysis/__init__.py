"""Result analysis: the conformity metric and the parameter sweeps."""

from repro.analysis.conformity import (
    ConformityReport,
    EndpointConformity,
    compare_conformity,
)
from repro.analysis.sweeps import (
    ModeCountSweep,
    ToleranceSweep,
    sweep_mode_count,
    sweep_tolerance,
)

__all__ = [
    "ConformityReport",
    "EndpointConformity",
    "ModeCountSweep",
    "ToleranceSweep",
    "compare_conformity",
    "sweep_mode_count",
    "sweep_tolerance",
]
