"""Synthetic multi-mode workloads (the paper's design suite, rebuilt)."""

from repro.workloads.export import export_workload
from repro.workloads.designs import (
    PaperDesign,
    figure2_modes,
    load_design,
    paper_suite,
)
from repro.workloads.families import FAMILIES, build_family, family_names
from repro.workloads.generator import (
    ModeGroupSpec,
    Workload,
    WorkloadSpec,
    generate,
)
from repro.workloads.seeding import stable_rng, stable_seed

__all__ = [
    "FAMILIES",
    "ModeGroupSpec",
    "PaperDesign",
    "Workload",
    "WorkloadSpec",
    "build_family",
    "export_workload",
    "family_names",
    "figure2_modes",
    "generate",
    "load_design",
    "paper_suite",
    "stable_rng",
    "stable_seed",
]
